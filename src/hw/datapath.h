// HGEN datapath construction (paper §4): lowers a checked Machine to a
// word-level structural netlist implementing the full processor:
//
//   * instruction fetch   — maxSizeWords combinational reads of instruction
//                           memory at PC, PC+1, ...
//   * decode              — per-operation decode lines and parameter
//                           extraction (hw/decode.h), including per-option
//                           select lines for non-terminal operands
//   * execute             — each operation's RTL action/side effects lowered
//                           to operator nodes, guarded by its decode line
//   * write-back          — per-register priority networks and per-memory
//                           write ports; PC defaults to PC + instruction
//                           size and is overridden by taken branches
//   * bookkeeping         — halted latch, illegal-instruction flag, and
//                           architectural cycle/instruction counters (cycle
//                           cost decoded per instruction, including option
//                           extras)
//
// The model is a flow-through (single instruction per clock) implementation
// with immediate write-back: Latency/Stall/Usage are performance attributes
// measured by the ILS, not modelled structurally here; the architectural
// cycle counter accumulates each instruction's static Cycle cost so that
//     XSIM cycles == hw cycleCount + XSIM stall cycles
// holds exactly (validated by the co-simulation tests).

#ifndef ISDL_HW_DATAPATH_H
#define ISDL_HW_DATAPATH_H

#include <utility>
#include <vector>

#include "hw/netlist.h"
#include "sim/signature.h"

namespace isdl::hw {

/// Identifies the RTL operator instance a netlist node was lowered from —
/// the "node" granularity of the paper's resource-sharing algorithm (§4.1.2).
struct OpTag {
  unsigned field = 0;
  unsigned op = 0;
  unsigned stmt = 0;  ///< statement ordinal within the operation
};

struct HwModel {
  Netlist netlist;

  /// decodeLines[f][o] — 1-bit net, high iff field f decodes operation o.
  std::vector<std::vector<NetId>> decodeLines;
  /// Shareable operator nodes (Binary arithmetic etc.) with their origin,
  /// in net order. A node lowered by two different operations has no tag.
  std::vector<std::pair<NetId, OpTag>> operatorTags;

  NetId instNet = kNoNet;      ///< full fetched instruction image
  NetId haltedReg = kNoNet;    ///< latches once the halt operation retires
  NetId illegalNet = kNoNet;   ///< high when some field decodes nothing
  NetId cycleCountReg = kNoNet;  ///< 32-bit architectural cycle accumulator
  NetId instrCountReg = kNoNet;  ///< 32-bit retired-instruction counter
  NetId pcReg = kNoNet;

  /// Storage lowering: registers map to Reg nets, addressed kinds to
  /// memories.
  struct StorageMap {
    bool isMem = false;
    NetId reg = kNoNet;
    int mem = -1;
  };
  std::vector<StorageMap> storage;
};

/// Builds the complete hardware model (hash-consed, dead nodes swept).
/// The machine must have passed checkMachine and have a valid
/// SignatureTable.
HwModel buildDatapath(const Machine& machine, const sim::SignatureTable& sigs);

/// Applies a net-id remap from Netlist::sweepDead to every net reference the
/// model holds outside the netlist itself; tags of removed nets are dropped
/// and the rest stay in net order.
void remapModel(HwModel& model, const std::vector<NetId>& remap);

}  // namespace isdl::hw

#endif  // ISDL_HW_DATAPATH_H
