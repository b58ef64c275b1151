// Ablation: state-monitor overhead.
//
// §3.3.1 routes every state access through the monitor hooks. The
// implementation fires callbacks only on actual changes and skips the event
// machinery entirely when no watch is registered — this harness measures
// the cost of (a) the always-present hook path, (b) an armed watch on a hot
// register, and (c) a watch on a cold location. An armed watch makes run()
// issue one instruction at a time, so the three runs all carry a no-op
// trace callback, which does the same: the rows compare the hook alone.
// Two more rows run by block, nothing armed and then the storage profile
// armed (Xsim::enableProfile), the observer every exploration candidate
// carries.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

struct Rig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<sim::Xsim> xsim;

  /// With `oneAtATime`, a no-op trace callback keeps run() off the block
  /// path.
  explicit Rig(bool oneAtATime = true) {
    machine = archs::loadSrep();
    xsim = std::make_unique<sim::Xsim>(*machine);
    auto prog = assembleOrDie(xsim->signatures(),
                              archs::srepBenchmarks()[1].source);
    std::string err;
    if (!xsim->loadProgram(prog, &err)) throw IsdlError(err);
    if (oneAtATime) xsim->setTraceCallback([](std::uint64_t) {});
  }

  /// The median of five timed loops: one loop moves by about 10 % on a
  /// shared host, as much as the smaller overheads measured here.
  double instrPerSec() {
    std::uint64_t insts = 0;
    // Warm caches/allocator before timing: monitor overhead is small, so
    // cold-start noise would otherwise dominate the comparison.
    for (int i = 0; i < 3; ++i) {
      xsim->reset();
      xsim->run(1'000'000);
    }
    return medianOf(5, [&] {
      auto [iters, secs] = timeLoop(
          [&] {
            xsim->reset();
            xsim->run(1'000'000);
            insts = xsim->stats().instructions;
          },
          0.2);
      return double(iters) * double(insts) / secs;
    });
  }
};

void BM_NoMonitors(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    rig.xsim->reset();
    rig.xsim->run(1'000'000);
  }
}
BENCHMARK(BM_NoMonitors);

void BM_HotMonitor(benchmark::State& state) {
  Rig rig;
  int rf = rig.machine->findStorage("RF");
  std::uint64_t hits = 0;
  rig.xsim->monitors().add(static_cast<unsigned>(rf), 9u,
                           [&](const sim::WriteEvent&) { ++hits; });
  for (auto _ : state) {
    rig.xsim->reset();
    rig.xsim->run(1'000'000);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_HotMonitor);

void printSummary(ResultSink& sink) {
  Rig plain;
  double base = plain.instrPerSec();

  Rig hot;
  int rf = hot.machine->findStorage("RF");
  std::uint64_t hits = 0;
  // R9 is the dot-product accumulator: written every iteration.
  hot.xsim->monitors().add(static_cast<unsigned>(rf), 9u,
                           [&](const sim::WriteEvent&) { ++hits; });
  double hotRate = hot.instrPerSec();

  Rig cold;
  int dm = cold.machine->findStorage("DM");
  cold.xsim->monitors().add(static_cast<unsigned>(dm), 999u,
                            [&](const sim::WriteEvent&) { ++hits; });
  double coldRate = cold.instrPerSec();

  Rig blocks(/*oneAtATime=*/false);
  double blockRate = blocks.instrPerSec();
  Rig profiled(/*oneAtATime=*/false);
  profiled.xsim->enableProfile();
  double profiledRate = profiled.instrPerSec();

  std::printf("\nAblation: monitor-hook overhead (paper section 3.3.1)\n");
  printRule();
  std::printf("One instruction at a time (a no-op trace callback armed):\n");
  std::printf("  no monitors:            %12.0f instructions/sec (1.00x)\n",
              base);
  std::printf("  hot watch (accumulator): %11.0f instructions/sec (%.2fx)\n",
              hotRate, base / hotRate);
  std::printf("  cold watch (DM[999]):    %11.0f instructions/sec (%.2fx)\n",
              coldRate, base / coldRate);
  std::printf("By block:\n");
  std::printf("  nothing armed:          %12.0f instructions/sec (1.00x)\n",
              blockRate);
  std::printf("  profile armed:          %12.0f instructions/sec (%.2fx)\n\n",
              profiledRate, blockRate / profiledRate);
  sink.add("no_monitors_inst_per_sec", base);
  sink.add("hot_watch_inst_per_sec", hotRate);
  sink.add("cold_watch_inst_per_sec", coldRate);
  sink.add("hot_watch_overhead_x", base / hotRate);
  sink.add("cold_watch_overhead_x", base / coldRate);
  sink.add("block_inst_per_sec", blockRate);
  sink.add("profiled_block_inst_per_sec", profiledRate);
  sink.add("profile_overhead_x", blockRate / profiledRate);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("abl_monitors");
  printSummary(sink);
  return 0;
}
