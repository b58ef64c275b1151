#include "hw/hgen.h"

#include <chrono>

namespace isdl::hw {

namespace {
double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

HgenOutput runHgen(const Machine& machine, const sim::SignatureTable& sigs,
                   const HgenOptions& options) {
  HgenOutput out;
  auto t0 = std::chrono::steady_clock::now();

  out.model = buildDatapath(machine, sigs);
  if (options.share) {
    SharingOptions so;
    so.useConstraints = options.useConstraints;
    out.stats.sharing = shareResources(out.model, machine, so);
  }
  out.stats.toolSeconds = secondsSince(t0);

  auto t1 = std::chrono::steady_clock::now();
  out.stats.area = synth::mapArea(out.model.netlist);
  out.stats.timing = synth::analyzeTiming(out.model.netlist);
  out.stats.siliconSeconds = secondsSince(t1);

  out.stats.cycleNs = out.stats.timing.criticalPathNs;
  out.stats.verilogLines = verilogLineCount(out.model.netlist);
  out.stats.dieSizeGridCells = out.stats.area.totalArea;
  out.stats.synthesisSeconds =
      out.stats.toolSeconds + out.stats.siliconSeconds;
  return out;
}

}  // namespace isdl::hw
