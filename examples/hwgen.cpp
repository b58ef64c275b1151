// HGEN demo: generate the synthesizable-Verilog hardware model for any of
// the bundled architectures, print the silicon-compiler report, and verify
// the model by gate-level co-simulation against the ILS.
//
// Build & run:  ./build/examples/hwgen [spam|spam2|srep|tdsp] [out.v]

#include <cstdio>
#include <cstring>
#include <fstream>

#include "archs/archs.h"
#include "hw/hgen.h"
#include "sim/xsim.h"
#include "synth/gatesim.h"

using namespace isdl;

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "srep";
  std::unique_ptr<Machine> machine;
  const char* app = nullptr;
  std::uint64_t budget = 0;
  if (!std::strcmp(which, "spam")) {
    machine = archs::loadSpam();
    app = archs::spamBenchmarks()[0].source;
    budget = archs::spamBenchmarks()[0].maxCycles;
  } else if (!std::strcmp(which, "spam2")) {
    machine = archs::loadSpam2();
    app = archs::spam2Benchmarks()[0].source;
    budget = archs::spam2Benchmarks()[0].maxCycles;
  } else if (!std::strcmp(which, "tdsp")) {
    machine = archs::loadTdsp();
    app = archs::tdspBenchmarks()[0].source;
    budget = archs::tdspBenchmarks()[0].maxCycles;
  } else {
    machine = archs::loadSrep();
    app = archs::srepBenchmarks()[0].source;
    budget = archs::srepBenchmarks()[0].maxCycles;
  }

  sim::Xsim xsim(*machine);
  hw::HgenOutput out = hw::runHgen(*machine, xsim.signatures());

  std::printf("HGEN report for %s\n", machine->name.c_str());
  std::printf("  netlist nodes      %zu (%zu memories)\n",
              out.model.netlist.nodes.size(),
              out.model.netlist.memories.size());
  std::printf("  resource sharing   %zu units -> %zu (%zu cliques, %zu "
              "muxes)\n",
              out.stats.sharing.shareableNodes, out.stats.sharing.unitsAfter,
              out.stats.sharing.cliquesUsed, out.stats.sharing.muxesAdded);
  std::printf("  cycle length       %.2f ns\n", out.stats.cycleNs);
  std::printf("  die size           %.0f grid cells (logic %.0f, flops "
              "%.0f, RAM %.0f)\n",
              out.stats.dieSizeGridCells, out.stats.area.logicArea,
              out.stats.area.flopArea, out.stats.area.ramArea);
  std::printf("  Verilog            %zu lines\n", out.stats.verilogLines);
  std::printf("  synthesis time     %.3f s (hgen %.3f, silicon %.3f)\n",
              out.stats.synthesisSeconds, out.stats.toolSeconds,
              out.stats.siliconSeconds);

  const char* path = argc > 2 ? argv[2] : nullptr;
  if (path) {
    std::ofstream f(path);
    f << hw::emitVerilog(out.model.netlist, {machine->name + "_core"});
    std::printf("  wrote %s\n", path);
  }

  // Gate-level co-simulation check: run a benchmark on the ILS and on the
  // generated model; architectural memory must agree.
  sim::Assembler assembler(xsim.signatures());
  DiagnosticEngine diags;
  auto prog = assembler.assemble(app, diags);
  if (!prog) {
    std::printf("assembly failed:\n%s", diags.dump().c_str());
    return 1;
  }
  std::string err;
  if (!xsim.loadProgram(*prog, &err)) {
    std::printf("%s\n", err.c_str());
    return 1;
  }
  xsim.run(budget);
  xsim.drainPipeline();

  synth::GateSim gs(out.model.netlist);
  if (!gs.loadProgram(*machine, out.model, *prog, &err)) {
    std::printf("co-simulation: %s\n", err.c_str());
    return 1;
  }
  if (!gs.runUntil(out.model.haltedReg, budget)) {
    std::printf("co-simulation: hardware model did not halt!\n");
    return 1;
  }

  bool match = true;
  for (std::size_t si = 0; si < machine->storages.size(); ++si) {
    const StorageDef& st = machine->storages[si];
    const auto& map = out.model.storage[si];
    if (!map.isMem) continue;
    for (std::uint64_t e = 0; e < st.depth && match; ++e)
      if (!(gs.peekMemory(map.mem, e) ==
            xsim.state().read(static_cast<unsigned>(si), e)))
        match = false;
  }
  std::printf("\nco-simulation vs ILS on '%s': %s (%llu hardware clocks, "
              "%llu architectural cycles)\n",
              which, match ? "state matches bit for bit" : "MISMATCH",
              (unsigned long long)gs.clocks(),
              (unsigned long long)gs.peekNet(out.model.cycleCountReg)
                  .toUint64());
  return match ? 0 : 1;
}
