// Table 2 reproduction: "Hardware Synthesis Statistics".
//
// Paper (Synopsys + LSI 10K):
//     Processor  Cycle (nsec)  Lines of Verilog  Die size (grid cells)  Synth time (s)
//     SPAM           ...             ...                 ...                ...
//     SPAM2          ...             ...                 ...                ...
//
// We run HGEN plus the quick silicon compiler (synth/) for both processors
// and print the same four columns. Absolute values come from the synthetic
// cell library (see synth/celllib.h); the paper's shape — SPAM larger and
// slower-clocked than SPAM2, synthesis time dominated by the silicon
// compiler — is the reproduced claim.

#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "bench_util.h"
#include "explore/spamfamily.h"
#include "isdl/parser.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

template <std::unique_ptr<Machine> (*Loader)()>
void BM_RunHgen(benchmark::State& state) {
  auto machine = Loader();
  DiagnosticEngine diags;
  sim::SignatureTable sigs(*machine, diags);
  for (auto _ : state) {
    hw::HgenOutput out = hw::runHgen(*machine, sigs);
    benchmark::DoNotOptimize(out.stats.dieSizeGridCells);
  }
}
BENCHMARK(BM_RunHgen<archs::loadSpam>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunHgen<archs::loadSpam2>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunHgen<archs::loadSrep>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunHgen<archs::loadTdsp>)->Unit(benchmark::kMillisecond);

void printTable2(ResultSink& sink) {
  struct Row {
    const char* name;
    std::unique_ptr<Machine> (*loader)();
  };
  Row rows[] = {
      {"SPAM", archs::loadSpam},
      {"SPAM2", archs::loadSpam2},
      {"SREP", archs::loadSrep},
      {"TDSP", archs::loadTdsp},
  };
  std::printf("\nTable 2: Hardware Synthesis Statistics\n");
  std::printf("(paper reports SPAM and SPAM2; SREP/TDSP added for scale)\n");
  printRule();
  std::printf("%-8s %12s %10s %22s %14s\n", "Processor", "Cycle (ns)",
              "Verilog", "Die size (grid cells)", "Synth time (s)");
  printRule();
  for (const Row& row : rows) {
    auto machine = row.loader();
    DiagnosticEngine diags;
    sim::SignatureTable sigs(*machine, diags);
    hw::HgenOutput out = hw::runHgen(*machine, sigs);
    std::printf("%-8s %12.2f %10zu %22.0f %14.3f\n", row.name,
                out.stats.cycleNs, out.stats.verilogLines,
                out.stats.dieSizeGridCells, out.stats.synthesisSeconds);
    std::string k(row.name);
    sink.add(k + "/cycle_ns", out.stats.cycleNs);
    sink.add(k + "/verilog_lines", double(out.stats.verilogLines));
    sink.add(k + "/die_size_grid_cells", out.stats.dieSizeGridCells);
    sink.add(k + "/synthesis_seconds", out.stats.synthesisSeconds);
  }
  printRule();
  std::printf("Breakdown for SPAM (logic / flops / RAM grid cells, tool vs "
              "silicon-compiler seconds):\n");
  {
    auto machine = archs::loadSpam();
    DiagnosticEngine diags;
    sim::SignatureTable sigs(*machine, diags);
    hw::HgenOutput out = hw::runHgen(*machine, sigs);
    std::printf("  logic %.0f  flops %.0f  ram %.0f   |  hgen %.3fs  "
                "silicon %.3fs\n",
                out.stats.area.logicArea, out.stats.area.flopArea,
                out.stats.area.ramArea, out.stats.toolSeconds,
                out.stats.siliconSeconds);
    std::printf("  sharing: %zu shareable units -> %zu after merging (%zu "
                "cliques instantiated)\n\n",
                out.stats.sharing.shareableNodes, out.stats.sharing.unitsAfter,
                out.stats.sharing.cliquesUsed);
  }
}

/// Heap allocations of buildDatapath + shareResources per SPAM-family
/// candidate (the 16 makeSpamVariant machines an exploration scores). The
/// count is deterministic, so CI holds it under a ceiling.
void printHgenAllocations(ResultSink& sink) {
  std::size_t allocations = 0, candidates = 0;
  for (unsigned alu = 1; alu <= 4; ++alu)
    for (unsigned mov = 0; mov <= 3; ++mov) {
      auto machine = parseAndCheckIsdl(
          explore::makeSpamVariant({alu, mov}).isdlSource);
      DiagnosticEngine diags;
      sim::SignatureTable sigs(*machine, diags);
      const std::size_t before = heapAllocations();
      hw::HwModel model = hw::buildDatapath(*machine, sigs);
      hw::shareResources(model, *machine);
      allocations += heapAllocations() - before;
      ++candidates;
    }
  const double perCandidate = double(allocations) / double(candidates);
  std::printf("HGEN heap allocations (buildDatapath + shareResources) per "
              "SPAM-family candidate: %.1f\n\n",
              perCandidate);
  sink.add("hgen_allocs_per_spam_candidate", perCandidate);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("table2_hgen_stats");
  sink.note("paper", "Synopsys + LSI 10K; SPAM larger and slower-clocked "
                     "than SPAM2");
  printTable2(sink);
  printHgenAllocations(sink);
  return 0;
}
