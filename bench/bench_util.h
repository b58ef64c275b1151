// Shared helpers for the benchmark/reproduction harnesses. Each bench binary
// regenerates one table or figure of the paper: google-benchmark micro-
// measurements first, then the paper-shaped summary table printed from
// direct wall-clock measurements.

#ifndef ISDL_BENCH_BENCH_UTIL_H
#define ISDL_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "archs/archs.h"
#include "hw/hgen.h"
#include "obs/json.h"
#include "sim/xsim.h"
#include "synth/gatesim.h"

namespace isdl::bench {

/// Funnel for measured bench results. Every fig/table bench records the
/// numbers it prints here too; the destructor writes them as
/// `BENCH_<name>.json` in the working directory, so a run of the bench
/// binaries leaves a machine-readable trajectory next to the console tables
/// (schema: docs/OBSERVABILITY.md).
class ResultSink {
 public:
  explicit ResultSink(std::string name) : name_(std::move(name)) {}

  void add(std::string key, double value) {
    numbers_.emplace_back(std::move(key), value);
  }
  void note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  ~ResultSink() {
    std::ofstream out(path());
    if (!out) return;  // read-only cwd: keep the console output authoritative
    obs::JsonWriter w(out, /*pretty=*/true);
    w.beginObject();
    w.field("bench", name_);
    w.key("results").beginObject();
    for (const auto& [key, value] : numbers_) w.field(key, value);
    w.endObject();
    w.key("notes").beginObject();
    for (const auto& [key, value] : notes_) w.field(key, value);
    w.endObject();
    w.endObject();
    out << "\n";
    std::printf("results written to %s\n", path().c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Assembles `source` for `machine`; aborts on error (bench inputs are the
/// repo's own benchmarks, so failure is a bug).
inline sim::AssembledProgram assembleOrDie(const sim::SignatureTable& sigs,
                                           const char* source) {
  sim::Assembler assembler(sigs);
  DiagnosticEngine diags;
  auto prog = assembler.assemble(source, diags);
  if (!prog) throw IsdlError("bench program failed to assemble:\n" +
                             diags.dump());
  return *prog;
}

/// Runs `fn` repeatedly until ~`minSeconds` of wall clock accumulate;
/// returns (iterations, seconds).
inline std::pair<std::uint64_t, double> timeLoop(
    const std::function<void()>& fn, double minSeconds = 0.4) {
  using clock = std::chrono::steady_clock;
  std::uint64_t iters = 0;
  auto start = clock::now();
  double elapsed = 0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < minSeconds);
  return {iters, elapsed};
}

/// XSIM simulation speed in architectural cycles per second on `source`.
/// `uop` selects the micro-op compiled core (default) or the tree-walking
/// interpreter fallback (sim/uop.h) — Table 1 reports both.
inline double xsimCyclesPerSec(const Machine& machine, const char* source,
                               std::uint64_t maxCycles, bool uop = true) {
  sim::Xsim xsim(machine);
  xsim.setUopEnabled(uop);
  sim::AssembledProgram prog = assembleOrDie(xsim.signatures(), source);
  std::string err;
  if (!xsim.loadProgram(prog, &err)) throw IsdlError(err);
  std::uint64_t cyclesPerRun = 0;
  auto [iters, seconds] = timeLoop([&] {
    xsim.reset();
    auto r = xsim.run(maxCycles);
    if (r.reason != sim::StopReason::Halted)
      throw IsdlError("bench program did not halt: " + r.message);
    cyclesPerRun = xsim.stats().cycles;
  });
  return double(iters) * double(cyclesPerRun) / seconds;
}

/// Hardware-model (netlist) simulation speed in architectural cycles per
/// second on the same program — the paper's "Synthesizable Verilog" row.
inline double hwModelCyclesPerSec(const Machine& machine, const char* source,
                                  std::uint64_t maxClocks,
                                  bool share = true) {
  sim::Xsim xsim(machine);  // for signatures + assembler only
  sim::AssembledProgram prog = assembleOrDie(xsim.signatures(), source);
  hw::HgenOptions opts;
  opts.share = share;
  hw::HgenOutput hgen = hw::runHgen(machine, xsim.signatures(), opts);

  synth::GateSim gs(hgen.model.netlist);
  std::uint64_t archCyclesPerRun = 0;
  auto [iters, seconds] = timeLoop(
      [&] {
        gs.reset();
        std::string err;
        if (!gs.loadProgram(machine, hgen.model, prog, &err))
          throw IsdlError(err);
        if (!gs.runUntil(hgen.model.haltedReg, maxClocks))
          throw IsdlError("hardware model did not halt");
        archCyclesPerRun = gs.peekNet(hgen.model.cycleCountReg).toUint64();
      },
      0.8);
  return double(iters) * double(archCyclesPerRun) / seconds;
}

inline void printRule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace isdl::bench

#endif  // ISDL_BENCH_BENCH_UTIL_H
