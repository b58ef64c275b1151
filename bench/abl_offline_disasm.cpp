// Ablation: off-line vs on-the-fly disassembly.
//
// The paper (§3.1) claims XSIM "performs disassembly off-line to improve
// speed". This harness quantifies the claim: executing from the decoded
// program cache versus re-decoding every instruction before executing it
// (what an on-the-fly simulator would do each time through a loop).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

struct Rig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<sim::Xsim> xsim;
  sim::AssembledProgram prog;

  Rig() {
    machine = archs::loadSrep();
    xsim = std::make_unique<sim::Xsim>(*machine);
    prog = assembleOrDie(xsim->signatures(),
                         archs::srepBenchmarks()[1].source);
    std::string err;
    if (!xsim->loadProgram(prog, &err)) throw IsdlError(err);
  }

  /// Decodes the instruction at the PC, as an on-the-fly simulator does
  /// before every step, into a scratch program whose arenas it reuses.
  bool decodeAtPc() {
    scratch.ops.clear();
    scratch.params.clear();
    return xsim->disassembler().decodeAt(prog.words, xsim->state().pc(),
                                         scratch);
  }
  sim::DecodedProgram scratch;
};

void BM_OfflineDisasmExecution(benchmark::State& state) {
  Rig rig;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    rig.xsim->reset();
    rig.xsim->run(1'000'000);
    instructions = rig.xsim->stats().instructions;
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(instructions));
}
BENCHMARK(BM_OfflineDisasmExecution);

void BM_OnTheFlyDisasmExecution(benchmark::State& state) {
  Rig rig;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    rig.xsim->reset();
    // Re-decode the current instruction before every step — the work an
    // on-the-fly simulator repeats each time around a loop.
    for (;;) {
      benchmark::DoNotOptimize(rig.decodeAtPc());
      auto r = rig.xsim->step();
      if (r.reason != sim::StopReason::MaxInstructions) break;
    }
    instructions = rig.xsim->stats().instructions;
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(instructions));
}
BENCHMARK(BM_OnTheFlyDisasmExecution);

void printSummary(ResultSink& sink) {
  Rig rig;
  std::uint64_t insts = 0;
  auto [offIters, offSecs] = timeLoop([&] {
    rig.xsim->reset();
    rig.xsim->run(1'000'000);
    insts = rig.xsim->stats().instructions;
  });
  double offline = double(offIters) * double(insts) / offSecs;
  auto [onIters, onSecs] = timeLoop([&] {
    rig.xsim->reset();
    for (;;) {
      benchmark::DoNotOptimize(rig.decodeAtPc());
      if (rig.xsim->step().reason != sim::StopReason::MaxInstructions) break;
    }
  });
  double onTheFly = double(onIters) * double(insts) / onSecs;

  std::printf("\nAblation: off-line disassembly (paper section 3.1)\n");
  printRule();
  std::printf("  off-line (decoded cache):   %12.0f instructions/sec\n",
              offline);
  std::printf("  on-the-fly (decode + exec): %12.0f instructions/sec\n",
              onTheFly);
  std::printf("  off-line speedup:           %12.2fx\n\n",
              offline / onTheFly);
  sink.add("offline_inst_per_sec", offline);
  sink.add("on_the_fly_inst_per_sec", onTheFly);
  sink.add("offline_speedup", offline / onTheFly);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("abl_offline_disasm");
  printSummary(sink);
  return 0;
}
