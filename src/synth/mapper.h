// Technology mapping and static timing analysis — the quick "silicon
// compiler" used to obtain Table 2's die size (grid cells) and cycle length
// (critical path, ns) from an HGEN netlist.
//
// Each word-level node is decomposed into library cells by closed-form
// formulas (see celllib.h); area is the overhead-scaled sum, timing is a
// longest-path computation over per-node delays from register/memory
// outputs to register/memory inputs.

#ifndef ISDL_SYNTH_MAPPER_H
#define ISDL_SYNTH_MAPPER_H

#include <string>
#include <vector>

#include "hw/netlist.h"
#include "synth/celllib.h"

namespace isdl::synth {

/// Mapping of one node: estimated cells, area and propagation delay.
struct NodeCost {
  double area = 0;    ///< grid cells (before wiring overhead)
  double delay = 0;   ///< ns through the node
  double cells = 0;   ///< equivalent primitive-cell count
};

/// Per-node decomposition into library cells.
NodeCost costOfNode(const hw::Netlist& netlist, hw::NetId id,
                    const CellLibrary& lib = defaultLibrary());

/// An adder/subtractor on `width`-bit operands: full adders behind an
/// operand-inversion stage. It prices AddSub nodes, and resource sharing
/// prices with it the unit that would merge adds with subtracts.
NodeCost addSubCost(unsigned width, const CellLibrary& lib = defaultLibrary());

struct AreaReport {
  double logicArea = 0;   ///< combinational cells, grid cells (with wiring)
  double flopArea = 0;    ///< registers
  double ramArea = 0;     ///< memory macro area (instruction/data memories)
  double totalArea = 0;   ///< die size: logic + flops + RAM
  double cellCount = 0;   ///< equivalent primitive cells
};

AreaReport mapArea(const hw::Netlist& netlist,
                   const CellLibrary& lib = defaultLibrary());

struct TimingReport {
  double criticalPathNs = 0;  ///< the cycle length of Table 2
  /// Path endpoints for reporting: nets on the critical path, source first.
  std::vector<hw::NetId> criticalPath;
};

TimingReport analyzeTiming(const hw::Netlist& netlist,
                           const CellLibrary& lib = defaultLibrary());

/// Dynamic-power estimate from gate-simulation switching activity:
///   P = energyPerToggledBit * toggles/cycle * f,   f = 1/criticalPath.
/// Returns milliwatts.
double estimatePowerMw(double togglesPerCycle, double criticalPathNs,
                       double energyPerToggledBitPj = 0.35);

}  // namespace isdl::synth

#endif  // ISDL_SYNTH_MAPPER_H
