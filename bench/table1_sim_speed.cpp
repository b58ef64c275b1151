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
// explains how to read the JSON).

#include <benchmark/benchmark.h>

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

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("table1_sim_speed");
  sink.note("paper", "XSIM 370000 cycles/sec, Verilog model 879, 421x");
  printTable1(sink);
  return 0;
}
