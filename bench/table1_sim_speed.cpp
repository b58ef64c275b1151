// Table 1 reproduction: "Simulation Speeds for XSIM vs Hardware Model".
//
// Paper (Sun Ultra 30/300, Verilog-XL):
//     Model                  Speed (cycles/sec)   Speedup
//     XSIM (ILS) Simulator        370,000           421x
//     Synthesizable Verilog           879             1x
//
// We measure the generated XSIM simulator against the netlist simulation
// of the HGEN hardware model (the Verilog-XL substitute; see DESIGN.md) on
// the SPAM dot-product kernel, and verify the paper's claim that the ratio
// is roughly architecture-independent by repeating on SPAM2 and SREP.
//
// XSIM has two execution engines (sim/uop.h): the micro-op compiled core
// (default) and the tree-walking interpreter it replaced. Both are measured;
// the headline `xsim_cycles_per_sec` key is the uop engine, and
// `uop_speedup_vs_interp` records the compiled core's gain (docs/PERFORMANCE.md
// explains how to read the JSON). Each Table 1 figure is the median of five
// timed loops. A last row times the bound engine's issue path over all 12
// bundled programs (`ns_per_issue`, `uops_per_issue`), unprofiled and with
// the storage profile armed (`ns_per_issue_profiled`).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

void xsimSpamDot(benchmark::State& state, bool uop) {
  auto machine = archs::loadSpam();
  sim::Xsim xsim(*machine);
  xsim.setUopEnabled(uop);
  auto prog = assembleOrDie(xsim.signatures(),
                            archs::spamBenchmarks()[0].source);
  std::string err;
  if (!xsim.loadProgram(prog, &err)) throw IsdlError(err);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    xsim.reset();
    xsim.run(archs::spamBenchmarks()[0].maxCycles);
    cycles = xsim.stats().cycles;
  }
  state.counters["cycles_per_sec"] = benchmark::Counter(
      double(cycles) * double(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_XsimSpamDot(benchmark::State& state) { xsimSpamDot(state, true); }
BENCHMARK(BM_XsimSpamDot)->Unit(benchmark::kMillisecond);

void BM_XsimInterpSpamDot(benchmark::State& state) {
  xsimSpamDot(state, false);
}
BENCHMARK(BM_XsimInterpSpamDot)->Unit(benchmark::kMillisecond);

void BM_HwModelSpamDot(benchmark::State& state) {
  auto machine = archs::loadSpam();
  sim::Xsim xsim(*machine);
  auto prog = assembleOrDie(xsim.signatures(),
                            archs::spamBenchmarks()[0].source);
  hw::HgenOutput hgen = hw::runHgen(*machine, xsim.signatures());
  synth::GateSim gs(hgen.model.netlist);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    gs.reset();
    std::string err;
    if (!gs.loadProgram(*machine, hgen.model, prog, &err)) {
      state.SkipWithError(err.c_str());
      break;
    }
    gs.runUntil(hgen.model.haltedReg, archs::spamBenchmarks()[0].maxCycles);
    cycles = gs.peekNet(hgen.model.cycleCountReg).toUint64();
  }
  state.counters["cycles_per_sec"] = benchmark::Counter(
      double(cycles) * double(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HwModelSpamDot)->Unit(benchmark::kMillisecond);

void printTable1(ResultSink& sink) {
  struct Row {
    const char* arch;
    std::unique_ptr<Machine> (*loader)();
    const char* source;
    std::uint64_t budget;
  };
  std::vector<archs::Benchmark> spamB = archs::spamBenchmarks();
  std::vector<archs::Benchmark> spam2B = archs::spam2Benchmarks();
  std::vector<archs::Benchmark> srepB = archs::srepBenchmarks();
  Row rows[] = {
      {"SPAM", archs::loadSpam, spamB[0].source, spamB[0].maxCycles},
      {"SPAM2", archs::loadSpam2, spam2B[0].source, spam2B[0].maxCycles},
      {"SREP", archs::loadSrep, srepB[1].source, srepB[1].maxCycles},
  };

  std::printf("\nTable 1: Simulation Speeds for XSIM vs Hardware Model\n");
  std::printf("(paper: XSIM 370,000 cycles/sec, Verilog model 879, "
              "speedup 421x on SPAM)\n");
  printRule();
  std::printf("%-8s %-28s %18s %10s\n", "Arch", "Model", "Speed (cycles/sec)",
              "Speedup");
  printRule();
  for (const Row& row : rows) {
    // Each figure is the median of five reset-and-run loops, so the
    // speed-up CI gates on is not one loop's luck.
    auto machine = row.loader();
    double ils = xsimCyclesPerSec(*machine, row.source, row.budget);
    double interp =
        xsimCyclesPerSec(*machine, row.source, row.budget, /*uop=*/false);
    double hwm = hwModelCyclesPerSec(*machine, row.source, row.budget);
    std::printf("%-8s %-28s %18.0f %9.0fx\n", row.arch,
                "XSIM (ILS, uop engine)", ils, ils / hwm);
    std::printf("%-8s %-28s %18.0f %9.0fx\n", row.arch,
                "XSIM (ILS, interpreter)", interp, interp / hwm);
    std::printf("%-8s %-28s %18.0f %9.0fx\n", row.arch,
                "Synthesizable model (netlist)", hwm, 1.0);
    sink.add(std::string(row.arch) + "/xsim_cycles_per_sec", ils);
    sink.add(std::string(row.arch) + "/xsim_uop_cycles_per_sec", ils);
    sink.add(std::string(row.arch) + "/xsim_interp_cycles_per_sec", interp);
    sink.add(std::string(row.arch) + "/uop_speedup_vs_interp", ils / interp);
    sink.add(std::string(row.arch) + "/hw_model_cycles_per_sec", hwm);
    sink.add(std::string(row.arch) + "/speedup", ils / hwm);
  }
  printRule();
  std::printf("Shape check: the ILS is faster than the netlist on every "
              "architecture, and the uop engine beats the interpreter it "
              "replaced.\n\n");
}

/// The bound engine's issue path on the `sim` op set of perfbench: every
/// bundled arch x kernel, each on an Xsim built and loaded once, reset and
/// run to halt per pass. `ns_per_issue` is a pass's wall clock over the
/// instructions it issues (the median of five rounds); `uops_per_issue` the
/// micro-ops of the issued records, both phases, weighted by how often each
/// address issues (a branch's skipped arm counts too); `block_issue_frac`
/// the share of a timed pass's issues that ran inside blocks
/// (Xsim::blockIssues), a count and not a timing. The `_profiled` figures
/// are the same with the storage profile armed (Xsim::enableProfile), as
/// every exploration candidate runs.
void printBoundIssueRow(ResultSink& sink) {
  struct ArchKernels {
    std::unique_ptr<Machine> (*loader)();
    std::vector<archs::Benchmark> (*benchmarks)();
  };
  const ArchKernels all[] = {{archs::loadSpam, archs::spamBenchmarks},
                             {archs::loadSpam2, archs::spam2Benchmarks},
                             {archs::loadSrep, archs::srepBenchmarks},
                             {archs::loadTdsp, archs::tdspBenchmarks}};
  struct Program {
    std::unique_ptr<sim::Xsim> xsim;
    std::uint64_t budget;
  };
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<Program> programs;
  for (const ArchKernels& a : all) {
    machines.push_back(a.loader());
    for (const archs::Benchmark& b : a.benchmarks()) {
      auto xsim = std::make_unique<sim::Xsim>(*machines.back());
      std::string err;
      if (!xsim->loadProgram(assembleOrDie(xsim->signatures(), b.source),
                             &err))
        throw IsdlError(err);
      programs.push_back({std::move(xsim), b.maxCycles});
    }
  }
  auto pass = [&] {
    for (Program& p : programs) {
      p.xsim->reset();
      if (p.xsim->run(p.budget).reason != sim::StopReason::Halted)
        throw IsdlError("bench program did not halt");
    }
  };

  std::uint64_t issues = 0, uops = 0;
  for (Program& p : programs) {
    const sim::uop::BoundProgram& bound = p.xsim->boundProgram();
    p.xsim->setTraceCallback([&](std::uint64_t addr) {
      ++issues;
      uops += bound.byAddress[addr].end;
    });
  }
  pass();
  for (Program& p : programs) p.xsim->setTraceCallback(nullptr);

  // Nanoseconds per issue (the median of five rounds) and the share of a
  // timed pass's issues that ran in blocks.
  auto measure = [&] {
    const double ns = medianOf(5, [&] {
      auto [iters, seconds] = timeLoop(pass, 0.2);
      return seconds * 1e9 / double(iters * issues);
    });
    pass();
    std::uint64_t inBlocks = 0;
    for (const Program& p : programs) inBlocks += p.xsim->blockIssues();
    return std::pair{ns, double(inBlocks) / double(issues)};
  };
  const auto [ns, blockFrac] = measure();
  for (Program& p : programs) p.xsim->enableProfile();
  const auto [nsProfiled, blockFracProfiled] = measure();
  const double perIssue = double(uops) / double(issues);
  std::printf("Bound engine on the 12 bundled programs: %llu issues per "
              "pass, %.1f ns per issue, %.2f micro-ops per issue, %.3f of "
              "issues in blocks\n",
              static_cast<unsigned long long>(issues), ns, perIssue,
              blockFrac);
  std::printf("  with the storage profile armed: %.1f ns per issue, %.3f of "
              "issues in blocks\n\n",
              nsProfiled, blockFracProfiled);
  sink.add("issues_per_pass", double(issues));
  sink.add("ns_per_issue", ns);
  sink.add("uops_per_issue", perIssue);
  sink.add("block_issue_frac", blockFrac);
  sink.add("ns_per_issue_profiled", nsProfiled);
  sink.add("block_issue_frac_profiled", blockFracProfiled);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("table1_sim_speed");
  sink.note("paper", "XSIM 370000 cycles/sec, Verilog model 879, 421x");
  printTable1(sink);
  printBoundIssueRow(sink);
  return 0;
}
