#include "explore/evaluate.h"

#include <chrono>

#include "hw/hgen.h"
#include "isdl/parser.h"
#include "isdl/sema.h"
#include "synth/gatesim.h"

namespace isdl::explore {

Evaluation evaluate(const Machine& machine, const std::string& appSource,
                    const EvaluateOptions& options) {
  Evaluation ev;
  ev.archName = machine.name;
  try {
    auto evalStart = std::chrono::steady_clock::now();
    // --- ILS path: compile + execute the application ----------------------
    sim::Xsim xsim(machine);
    xsim.enableProfile();  // storage heatmaps land in ev.metrics
    sim::Assembler assembler(xsim.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble(appSource, diags);
    if (!prog) {
      ev.error = "assembly failed:\n" + diags.dump();
      return ev;
    }
    std::string loadErr;
    if (!xsim.loadProgram(*prog, &loadErr)) {
      ev.error = "load failed: " + loadErr;
      return ev;
    }
    sim::RunResult r = [&] {
      obs::ScopedTimer t = xsim.registry().time("eval/sim_ns");
      return xsim.run(options.maxCycles);
    }();
    if (r.reason != sim::StopReason::Halted) {
      ev.error = std::string("application did not halt: ") +
                 sim::stopReasonName(r.reason) + " " + r.message;
      return ev;
    }
    xsim.drainPipeline();
    ev.cycles = xsim.stats().cycles;
    ev.instructions = xsim.stats().instructions;
    ev.dataStallCycles = xsim.stats().dataStallCycles;
    ev.structStallCycles = xsim.stats().structStallCycles;
    ev.stats = xsim.stats();

    // --- hardware path: cycle length + physical costs ----------------------
    hw::HgenOutput hgen = [&] {
      obs::ScopedTimer t = xsim.registry().time("eval/hgen_ns");
      return hw::runHgen(machine, xsim.signatures());
    }();
    ev.cycleNs = hgen.stats.cycleNs;
    ev.dieSizeGridCells = hgen.stats.dieSizeGridCells;
    ev.verilogLines = hgen.stats.verilogLines;
    // Whole-evaluation wall clock (sim + hgen), recorded before the report
    // snapshot so the counter lands in ev.metrics for per-worker merging.
    xsim.registry().counter("eval/total_ns").add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - evalStart)
            .count()));
    ev.metrics = xsim.metricsReport();

    if (options.measurePower) {
      synth::GateSim gs(hgen.model.netlist);
      gs.enableToggleCounting(true);
      std::string loadError;
      if (!gs.loadProgram(machine, hgen.model, *prog, &loadError))
        throw IsdlError("hardware model: " + loadError);
      gs.runUntil(hgen.model.haltedReg, options.powerClocks);
      if (gs.clocks() > 0) {
        double togglesPerCycle = double(gs.toggleCount()) / double(gs.clocks());
        ev.powerMw = synth::estimatePowerMw(togglesPerCycle, ev.cycleNs);
      }
    }
    ev.ok = true;
  } catch (const std::exception& e) {
    ev.error = e.what();
  }
  return ev;
}

Evaluation evaluateIsdl(const std::string& isdlSource,
                        const std::string& appSource,
                        const EvaluateOptions& options) {
  try {
    auto machine = parseAndCheckIsdl(isdlSource);
    return evaluate(*machine, appSource, options);
  } catch (const std::exception& e) {
    Evaluation ev;
    ev.error = e.what();
    return ev;
  }
}

}  // namespace isdl::explore
