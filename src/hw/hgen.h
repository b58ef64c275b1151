// HGEN: the ISDL-to-hardware compiler (paper §4). One call takes a checked
// Machine through datapath construction, resource sharing and the quick
// silicon compiler, producing everything Table 2 reports: cycle length (ns),
// lines of Verilog, die size (grid cells) and synthesis time (seconds).
// The line count is derived from the netlist (verilogLineCount); callers
// that want the Verilog text render it with
// emitVerilog(out.model.netlist, {machine.name + "_core"}).

#ifndef ISDL_HW_HGEN_H
#define ISDL_HW_HGEN_H

#include "hw/datapath.h"
#include "hw/sharing.h"
#include "hw/verilog.h"
#include "synth/mapper.h"

namespace isdl::hw {

struct HgenOptions {
  bool share = true;             ///< sharing pass (§4.1); the naive
                                 ///< scheme (false) still sweeps dead logic
  bool useConstraints = true;    ///< constraint-informed sharing (rule R4)
};

struct HgenStats {
  double cycleNs = 0;             ///< Table 2 "Cycle (nsec)"
  std::size_t verilogLines = 0;   ///< Table 2 "Lines of Verilog"
  double dieSizeGridCells = 0;    ///< Table 2 "Die Size (grid cells)"
  double synthesisSeconds = 0;    ///< Table 2 "Synthesis time (sec)"
  double toolSeconds = 0;         ///< HGEN itself (lowering + sharing)
  double siliconSeconds = 0;      ///< the silicon-compiler stage (map + STA)
  SharingReport sharing;
  synth::AreaReport area;
  synth::TimingReport timing;
};

struct HgenOutput {
  HwModel model;
  HgenStats stats;
};

HgenOutput runHgen(const Machine& machine, const sim::SignatureTable& sigs,
                   const HgenOptions& options = {});

}  // namespace isdl::hw

#endif  // ISDL_HW_HGEN_H
