// The XSIM processing core (paper §3.3.3). Executes decoded instructions
// with the paper's two-phase cycle semantics:
//
//   phase A  all operation actions read the pre-cycle state and stage their
//            writes into temporary storage;
//   phase B  side effects run, conceptually after the actions but in the
//            same cycle (they observe the staged action results);
//   commit   staged writes retire after Latency cycles through a
//            delayed-write queue, so results become architecturally visible
//            exactly when the description says they do.
//
// There is no explicit pipeline model, exactly as in ISDL. Stall cycles are
// derived from the instruction stream: a read of a location with a pending
// (uncommitted) write either gets the forwarded value (producer Stall == 0:
// the description promises full bypass, §4.1.3) or stalls issue until the
// write retires (producer Stall > 0: interlock). Usage creates structural
// stalls by keeping a field's functional unit busy.
//
// Two evaluators drive the same cycle model: the tree-walking interpreter
// (BitVector values through rtl::evalExpr, any width) and the micro-op
// engine (sim/uop.h; ≤64-bit values through rtl/narrow_alu.h), which Xsim
// installs whenever the machine's compiled programs pass the narrow-width
// proof. Both stage writes through the same delayed-write queue.

#ifndef ISDL_SIM_CORE_H
#define ISDL_SIM_CORE_H

#include <string>
#include <vector>

#include "rtl/narrow_alu.h"
#include "sim/decoded.h"
#include "sim/state.h"
#include "sim/stats.h"

namespace isdl::obs {
class TraceBuffer;
struct StorageHeatmap;
}  // namespace isdl::obs

namespace isdl::sim::uop {
struct Program;
class UopTable;
}  // namespace isdl::sim::uop

namespace isdl::sim {

class ExecEngine {
 public:
  ExecEngine(const Machine& machine, State& state);

  struct IssueInfo {
    bool ok = true;
    std::string error;                    ///< runtime trap message when !ok
    std::uint64_t dataStallCycles = 0;    ///< RAW interlock bubbles
    std::uint64_t structStallCycles = 0;  ///< busy-functional-unit bubbles
    /// True if a write to the program counter retired during this
    /// instruction's cycle window; the scheduler then skips the sequential
    /// PC increment (branch taken).
    bool pcCommitted = false;
  };

  /// Executes one instruction starting at the current cycle; advances the
  /// cycle by the instruction's cycle cost plus any stalls.
  IssueInfo issue(const DecodedInstruction& inst);

  std::uint64_t cycle() const { return cycle_; }

  /// Commits every still-pending write (used before final state inspection,
  /// where in-flight latencies should not hide results).
  void drain();

  void reset();

  // --- XTRACE hooks (all nullable; a disabled hook costs one branch) --------
  /// Ring buffer receiving issue/stall/write-back events.
  void setTrace(obs::TraceBuffer* trace) { trace_ = trace; }
  /// Heatmap receiving one countRead per architectural read the core
  /// performs (the write side layers on Monitors, see Xsim::enableProfile).
  void setHeatmap(obs::StorageHeatmap* heat) { heat_ = heat; }
  /// Stats whose stall-attribution vectors the engine fills (sized by the
  /// owner; the aggregate counters stay owned by the scheduler).
  void setStatsSink(Stats* stats) { statsSink_ = stats; }

  /// Switches issue() to the micro-op compiled fast path (sim/uop.h) and
  /// preloads the table's constant pool into the register file. Null
  /// reverts to the tree-walking interpreter. The table must be narrow
  /// (uop::UopTable::narrow), outlive the engine and describe the same
  /// Machine. Defined in uop.cpp.
  void setUopTable(const uop::UopTable* table);
  bool usingUops() const { return uops_ != nullptr; }

 private:
  struct Pending {
    unsigned si = 0;
    std::uint64_t elem = 0;
    bool hasSlice = false;
    unsigned hi = 0, lo = 0;
    BitVector value;
    std::uint64_t commitCycle = 0;  ///< retires at the END of this cycle
    unsigned stallCost = 0;         ///< producer's Stall; 0 = bypassable
    std::uint64_t instrId = 0;      ///< issuing instruction (for phase B)
    std::uint64_t seq = 0;          ///< staging order
  };

  const Machine& machine_;
  State& state_;
  /// Delayed-write queue, kept sorted by (commitCycle, seq) on insert so
  /// commitUpTo retires a prefix instead of re-sorting every call.
  std::vector<Pending> pending_;
  /// Overlay index: pending-entry count per storage. readLoc skips the
  /// pending scan entirely for storages with nothing in flight (the common
  /// case), which is what de-quadratifies the read path.
  std::vector<std::uint32_t> pendingBySi_;
  std::vector<std::uint64_t> fieldBusyUntil_;
  std::uint64_t cycle_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t instrId_ = 0;
  bool pcCommitted_ = false;

  // Per-issue evaluation state.
  mutable std::uint64_t requiredStall_ = 0;
  mutable unsigned stallStorage_ = 0;  ///< producer of the largest stall
  bool phaseB_ = false;
  std::vector<Pending> stagedLocal_;

  // XTRACE observers (null when disabled).
  obs::TraceBuffer* trace_ = nullptr;
  obs::StorageHeatmap* heat_ = nullptr;
  Stats* statsSink_ = nullptr;

  class OpContext;
  struct ResolvedLv {
    unsigned si = 0;
    std::uint64_t elem = 0;
    bool hasSlice = false;
    unsigned hi = 0, lo = 0;
  };

  // Micro-op fast path (sim/uop.h): compiled programs plus the reusable
  // execution scratch state (register file, lvalue slots, decoded-parameter
  // frame stack). All grow to high-water marks and are reused across issues.
  const uop::UopTable* uops_ = nullptr;
  std::vector<narrow::Val> regs_;
  std::vector<ResolvedLv> lvSlots_;
  std::vector<const std::vector<DecodedParam>*> frames_;

  /// The pending-write overlay of one read: counts it in the heatmap, calls
  /// `forward(p)` for every in-flight write the reader sees, oldest first,
  /// and records the interlock stall of every write it must wait for.
  template <class Forward>
  void overlayPending(unsigned si, std::uint64_t elem, Forward forward) const;
  /// Reads a location through the overlay: the interpreter's BitVector read.
  BitVector readLoc(unsigned si, std::uint64_t elem) const;
  /// The same read on the low word, for storages at most 64 bits wide (the
  /// micro-op engine's reads).
  std::uint64_t readNarrow(unsigned si, std::uint64_t elem) const;
  void commitUpTo(std::uint64_t cycleInclusive);
  void advanceTo(std::uint64_t newCycle);
  void insertPending(Pending&& p);
  void stageWrite(const ResolvedLv& lv, BitVector value, unsigned latency,
                  unsigned stallCost);
  ResolvedLv resolveLvalue(const rtl::Lvalue& lv, const OpContext& ctx) const;
  void execStmts(const std::vector<rtl::StmtPtr>& stmts, const OpContext& ctx,
                 unsigned latency, unsigned stallCost);
  void execOptionSideEffects(const OpContext& ctx, unsigned latency,
                             unsigned stallCost);
  /// The micro-op dispatch loop. Defined in uop.cpp.
  void execProgram(const uop::Program& prog,
                   const std::vector<DecodedParam>& dparams, unsigned latency,
                   unsigned stallCost);

  friend class OpContext;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_CORE_H
