// Figure 5 reproduction: the resource-sharing algorithm.
//
// The figure is the matrix/maximal-clique pseudo-code; this harness runs the
// implemented pass over every built-in architecture and reports the numbers
// the algorithm is about: shareable operator nodes, maximal cliques found,
// units instantiated, muxes added, and the die-size effect versus the naive
// scheme of §4.1.1 — with and without the constraint refinement (rule R4).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hw/sharing.h"

namespace {

using namespace isdl;
using namespace isdl::bench;

void BM_ShareResourcesSpam(benchmark::State& state) {
  auto machine = archs::loadSpam();
  DiagnosticEngine diags;
  sim::SignatureTable sigs(*machine, diags);
  for (auto _ : state) {
    hw::HwModel model = hw::buildDatapath(*machine, sigs);
    hw::SharingReport report = hw::shareResources(model, *machine);
    benchmark::DoNotOptimize(report.unitsAfter);
  }
}
BENCHMARK(BM_ShareResourcesSpam)->Unit(benchmark::kMillisecond);

void printFigure5(ResultSink& sink) {
  std::printf("\nFigure 5: resource sharing — compatibility matrix + maximal "
              "cliques\n");
  printRule('-', 100);
  std::printf("%-8s %9s %9s %9s %8s %7s  %14s %14s %9s\n", "Arch", "nodes",
              "cliques", "units", "merged", "muxes", "naive area",
              "shared area", "saved");
  printRule('-', 100);

  struct Row {
    const char* name;
    std::unique_ptr<Machine> (*loader)();
  };
  Row rows[] = {
      {"SREP", archs::loadSrep},
      {"TDSP", archs::loadTdsp},
      {"SPAM2", archs::loadSpam2},
      {"SPAM", archs::loadSpam},
  };
  for (const Row& row : rows) {
    auto machine = row.loader();
    DiagnosticEngine diags;
    sim::SignatureTable sigs(*machine, diags);

    hw::HgenOptions naiveOpts;
    naiveOpts.share = false;
    hw::HgenOutput naive = hw::runHgen(*machine, sigs, naiveOpts);
    hw::HgenOutput shared = hw::runHgen(*machine, sigs);

    const auto& rep = shared.stats.sharing;
    double savedPct = 100.0 * (naive.stats.area.logicArea -
                               shared.stats.area.logicArea) /
                      naive.stats.area.logicArea;
    std::printf("%-8s %9zu %9zu %9zu %8zu %7zu  %14.0f %14.0f %8.1f%%\n",
                row.name, rep.shareableNodes, rep.maximalCliques,
                rep.unitsAfter, rep.shareableNodes - rep.unitsAfter,
                rep.muxesAdded, naive.stats.area.logicArea,
                shared.stats.area.logicArea, savedPct);
    std::string k(row.name);
    sink.add(k + "/shareable_nodes", double(rep.shareableNodes));
    sink.add(k + "/maximal_cliques", double(rep.maximalCliques));
    sink.add(k + "/units_after", double(rep.unitsAfter));
    sink.add(k + "/muxes_added", double(rep.muxesAdded));
    sink.add(k + "/naive_logic_area", naive.stats.area.logicArea);
    sink.add(k + "/shared_logic_area", shared.stats.area.logicArea);
    sink.add(k + "/area_saved_pct", savedPct);
  }
  printRule('-', 100);

  // Rule R4 ablation: constraint-informed cross-field sharing (the paper's
  // §4.1.1 bus example).
  std::printf("\nConstraint refinement (rule R4) on SPAM: the shared "
              "integer-multiplier array (U0..U2)\nand the indexed-address "
              "adder borrowed from U1 exist only as constraints — without\n"
              "them the naive scheme of section 4.1.1 duplicates the units:\n");
  auto machine = archs::loadSpam();
  DiagnosticEngine diags;
  sim::SignatureTable sigs(*machine, diags);
  hw::HgenOptions noCon;
  noCon.useConstraints = false;
  hw::HgenOutput with = hw::runHgen(*machine, sigs);
  hw::HgenOutput without = hw::runHgen(*machine, sigs, noCon);
  std::printf("  with constraints:    %zu cliques, logic area %.0f\n",
              with.stats.sharing.cliquesUsed, with.stats.area.logicArea);
  std::printf("  without constraints: %zu cliques, logic area %.0f\n\n",
              without.stats.sharing.cliquesUsed,
              without.stats.area.logicArea);
  sink.add("SPAM/r4_with_constraints_logic_area", with.stats.area.logicArea);
  sink.add("SPAM/r4_without_constraints_logic_area",
           without.stats.area.logicArea);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ResultSink sink("fig5_sharing");
  printFigure5(sink);
  return 0;
}
