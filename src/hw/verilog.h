// Synthesizable-Verilog emission (paper §4: "We consider a description of
// the architecture in synthesizable Verilog to be a sufficient hardware
// model"). Emits the HGEN netlist as a single Verilog-2001 module:
//
//   * one wire + assign per combinational node,
//   * always @(posedge clk) blocks for registers (synchronous reset) and
//     for each memory's write ports (emission order = priority),
//   * memories as reg arrays with combinational read assigns,
//   * floating-point operators as instantiated macro blocks with stub
//     module definitions appended (a technology library would supply them).

#ifndef ISDL_HW_VERILOG_H
#define ISDL_HW_VERILOG_H

#include <string>

#include "hw/netlist.h"

namespace isdl::hw {

struct VerilogOptions {
  std::string moduleName = "isdl_core";
};

/// Renders the netlist as synthesizable Verilog.
std::string emitVerilog(const Netlist& netlist,
                        const VerilogOptions& options = {});

/// Number of newline-terminated lines in `text` (Table 2's metric).
std::size_t countLines(const std::string& text);

/// countLines(emitVerilog(netlist, options)) without rendering the text:
/// the emitter's layout is fixed per node, memory and output, so the count
/// follows from the netlist alone (for any module name without a newline).
std::size_t verilogLineCount(const Netlist& netlist);

}  // namespace isdl::hw

#endif  // ISDL_HW_VERILOG_H
