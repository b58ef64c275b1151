// Ablation: XSIM (its default bound micro-op engine) vs the generated
// compiled-code simulator — the speedup the paper's §6.2 future work
// predicts ("Additional speedups can be obtained by a move to compiled-code
// simulators").
//
// The generated C++ is compiled with the host compiler at bench time; if no
// compiler is available the comparison is skipped with a note. With a
// compiler present, a generated simulator that fails to compile or run makes
// the bench exit 1.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "sim/codegen.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

void BM_XsimSrepDot(benchmark::State& state) {
  auto machine = archs::loadSrep();
  sim::Xsim xsim(*machine);
  auto prog = assembleOrDie(xsim.signatures(),
                            archs::srepBenchmarks()[1].source);
  std::string err;
  if (!xsim.loadProgram(prog, &err)) throw IsdlError(err);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    xsim.reset();
    xsim.run(1'000'000);
    cycles = xsim.stats().cycles;
  }
  state.counters["cycles_per_sec"] = benchmark::Counter(
      double(cycles) * double(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_XsimSrepDot);

/// Runs the compiled `abl_compiled_sim.gen.bin` and returns its simulated
/// cycles per second, or 0 if it failed.
double compiledCyclesPerSec() {
  if (std::system("./abl_compiled_sim.gen.bin > abl_compiled_sim.out") != 0)
    return 0;
  std::ifstream out("abl_compiled_sim.out");
  std::string word;
  std::uint64_t cycles = 0;
  double seconds = 0;
  while (out >> word) {
    if (word == "cycles") out >> cycles;
    else if (word == "seconds") out >> seconds;
    else {
      std::string skip;
      std::getline(out, skip);
    }
  }
  return seconds > 0 ? double(cycles) / seconds : 0;
}

/// Prints the table and fills `sink`; returns false if a generated simulator
/// failed to compile or run.
bool printSummary(ResultSink& sink) {
  std::printf("\nAblation: XSIM vs compiled-code simulation "
              "(paper section 6.2)\n");
  printRule();
  if (std::system("c++ --version > /dev/null 2>&1") != 0) {
    std::printf("  (no host C++ compiler; compiled-code row skipped)\n\n");
    sink.note("skipped", "no host C++ compiler");
    return true;
  }

  struct Row {
    const char* arch;
    std::unique_ptr<Machine> (*loader)();
    const char* source;
  };
  Row rows[] = {
      {"SREP", archs::loadSrep, archs::srepBenchmarks()[1].source},
      {"SPAM", archs::loadSpam, archs::spamBenchmarks()[0].source},
  };
  std::printf("%-8s %-24s %18s %10s\n", "Arch", "Simulator",
              "Speed (cycles/sec)", "Speedup");
  printRule();
  bool ok = true;
  for (const Row& row : rows) {
    auto machine = row.loader();
    double xsimRate = xsimCyclesPerSec(*machine, row.source, 1'000'000);

    // Generate, compile and time the compiled-code simulator. 100,000
    // repeats run for about a quarter of a second; the best of three runs
    // keeps the host's moments of contention out of the row.
    sim::Xsim xsim(*machine);
    auto prog = assembleOrDie(xsim.signatures(), row.source);
    sim::CodegenOptions opts;
    opts.repeats = 100'000;
    std::string source = sim::generateCompiledSim(*machine, xsim.signatures(),
                                                  prog, opts);
    {
      std::ofstream f("abl_compiled_sim.gen.cpp");
      f << source;
    }
    if (std::system("c++ -O2 -std=c++17 -o abl_compiled_sim.gen.bin "
                    "abl_compiled_sim.gen.cpp 2> /dev/null") != 0) {
      std::printf("%-8s %-24s %18s\n", row.arch, "compiled-code",
                  "(compile failed)");
      ok = false;
      continue;
    }
    double compiled = 0;
    for (int run = 0; run < 3; ++run) {
      const double rate = compiledCyclesPerSec();
      if (rate == 0) {
        compiled = 0;
        break;
      }
      compiled = std::max(compiled, rate);
    }
    if (compiled == 0) {
      std::printf("%-8s %-24s %18s\n", row.arch, "compiled-code",
                  "(run failed)");
      ok = false;
      continue;
    }
    std::printf("%-8s %-24s %18.0f %9.1fx\n", row.arch, "XSIM (bound engine)",
                xsimRate, 1.0);
    std::printf("%-8s %-24s %18.0f %9.1fx\n", row.arch,
                "compiled-code (generated)", compiled, compiled / xsimRate);
    std::string k(row.arch);
    sink.add(k + "/xsim_cycles_per_sec", xsimRate);
    sink.add(k + "/compiled_cycles_per_sec", compiled);
    sink.add(k + "/compiled_speedup", compiled / xsimRate);
    std::remove("abl_compiled_sim.gen.cpp");
    std::remove("abl_compiled_sim.gen.bin");
    std::remove("abl_compiled_sim.out");
  }
  printRule();
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("abl_compiled_sim");
  return printSummary(sink) ? 0 : 1;
}
