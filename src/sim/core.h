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
// (BitVector values through rtl::evalExpr, any width) and the bound
// micro-op records of sim/uop.h (≤64-bit values through rtl/narrow_alu.h),
// which Xsim passes in whenever the machine passes the narrow-width proof.
// Both stage writes through the same delayed-write queue.

#ifndef ISDL_SIM_CORE_H
#define ISDL_SIM_CORE_H

#include <string>
#include <vector>

#include "sim/decoded.h"
#include "sim/state.h"
#include "sim/stats.h"
#include "sim/uop.h"

namespace isdl::obs {
class TraceBuffer;
struct StorageHeatmap;
}  // namespace isdl::obs

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

  /// Executes `inst`, one instruction of `program`, starting at the current
  /// cycle; advances the cycle by the instruction's cycle cost plus any
  /// stalls. With `bound`, runs the instruction's record there (the program
  /// bound by uop::Binder::bind); without, interprets the decoded
  /// instruction.
  IssueInfo issue(const DecodedProgram& program,
                  const DecodedInstruction& inst,
                  uop::BoundProgram* bound = nullptr);

  std::uint64_t cycle() const { return cycle_; }

  /// Commits every still-pending write (used before final state inspection,
  /// where in-flight latencies should not hide results).
  void drain();

  void reset();

  // --- XTRACE hooks (all nullable; a disabled hook costs one branch) --------
  /// Ring buffer receiving issue/stall/write-back events.
  void setTrace(obs::TraceBuffer* trace) { trace_ = trace; }
  /// Heatmap receiving one countRead per architectural read the core
  /// performs (State counts the writes, see Xsim::enableProfile).
  void setHeatmap(obs::StorageHeatmap* heat) { heat_ = heat; }
  /// Stats whose stall-attribution vectors the engine fills (sized by the
  /// owner; the aggregate counters stay owned by the scheduler).
  void setStatsSink(Stats* stats) { statsSink_ = stats; }

 private:
  /// One staged or in-flight write. Trivially copyable: the value of a
  /// storage at most 64 bits wide is the word itself, and a wider storage's
  /// value sits in wide_, `value` being its index there.
  struct Pending {
    unsigned si = 0;
    bool hasSlice = false;
    unsigned hi = 0, lo = 0;
    std::uint64_t elem = 0;
    std::uint64_t value = 0;
    std::uint64_t commitCycle = 0;  ///< retires at the END of this cycle
    unsigned stallCost = 0;         ///< producer's Stall; 0 = bypassable
    std::uint64_t instrId = 0;      ///< issuing instruction (for phase B)
  };

  const Machine& machine_;
  State& state_;
  /// Delayed-write queue from pendingHead_ on, kept sorted by commit cycle
  /// (staging order within one) on insert, so commitUpTo retires a prefix by
  /// advancing the head instead of re-sorting or shifting every call.
  std::vector<Pending> pending_;
  std::size_t pendingHead_ = 0;
  /// Values of pending writes to storages wider than 64 bits, and the free
  /// entries among them.
  std::vector<BitVector> wide_;
  std::vector<std::uint32_t> wideFree_;
  /// Overlay index: pending-entry count per storage. readLoc skips the
  /// pending scan entirely for storages with nothing in flight (the common
  /// case), which is what de-quadratifies the read path.
  std::vector<std::uint32_t> pendingBySi_;
  /// Every instruction occupies every field's unit for its effective Usage
  /// from its issue cycle, so the unit that frees last is the one with the
  /// largest Usage of the last instruction: its field and free cycle.
  std::uint64_t busyUntil_ = 0;
  unsigned busyField_ = 0;
  std::uint64_t cycle_ = 0;
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
  void insertPending(const Pending& p);
  /// Stages a write of `word`, or of `*wide` when the storage is wider than
  /// 64 bits; throws on a write conflict within the phase.
  void stageWrite(const uop::WriteSlot& lv, std::uint64_t word,
                  BitVector* wide);
  /// Drops the writes staged by the phase in progress.
  void discardStaged();
  std::uint32_t allocWide(BitVector&& value);
  bool isWide(unsigned si) const { return state_.width(si) > 64; }
  uop::WriteSlot resolveLvalue(const rtl::Lvalue& lv,
                               const OpContext& ctx) const;
  void execStmts(const std::vector<rtl::StmtPtr>& stmts, const OpContext& ctx,
                 unsigned latency, unsigned stallCost);
  void execOptionSideEffects(const OpContext& ctx, unsigned latency,
                             unsigned stallCost);
  /// Runs phase A (or, with `phaseB`, phase B) of the bound record at
  /// `address`: the micro-op dispatch loop, defined in uop.cpp.
  void execProgram(uop::BoundProgram& prog, std::uint64_t address,
                   bool phaseB);

  friend class OpContext;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_CORE_H
