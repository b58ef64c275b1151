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
// Both stage writes through the same delayed-write queue, and both run
// through the one issue routine (ExecEngine::issue).
//
// The queue holds each write once. A write is built in its final place at
// the queue's end behind a mark for the phase in progress; publishing the
// phase counts its writes into the per-storage overlay index and moves any
// that retires before a write already in flight back into commit-cycle
// order. A stall retry or a trap truncates the queue to the mark.
//
// The bound engine also issues by block (runBlock): from an entry with
// nothing in flight and every unit free, a basic block's stalls and write
// order are fixed by its instructions alone, so uop::Binder::buildBlock
// computes them once. runBlock then runs the block's records through the
// same dispatch loop and staging, applies each instruction's writes to the
// state as soon as it has run, and skips the queue, the hazard probes and
// the retry loop, which could change nothing there. Under a storage profile
// the block's schedule also carries its heatmap counts, so a block costs
// about the same with the profile armed; the scheduler (Xsim) leaves this
// path for every other observer.

#ifndef ISDL_SIM_CORE_H
#define ISDL_SIM_CORE_H

#include <string>
#include <utility>
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
  /// `stats` receives the stall cycles and their attribution and the cycle
  /// count; the scheduler keeps the issue counts.
  ExecEngine(const Machine& machine, State& state, Stats& stats);

  /// Executes `inst`, one instruction of `program`, starting at the current
  /// cycle; advances the cycle by the instruction's cycle cost plus any
  /// stalls. With `bound`, runs the instruction's record there (the program
  /// bound by uop::Binder::bind); without, interprets the decoded
  /// instruction. Returns true if a write to the program counter retired
  /// during the instruction's cycle window; the scheduler then skips the
  /// sequential PC increment (branch taken).
  ///
  /// A runtime trap (out-of-range access, write conflict, ...) throws
  /// rtl::EvalError after dropping every write the trapping phase staged;
  /// phase A's writes stay in flight when phase B traps. A trapping
  /// instruction's stall cycles count neither in the Stats totals nor in
  /// their attribution (by storage and by field), and the Stats cycle count
  /// stays where the last completed instruction left it.
  bool issue(const DecodedProgram& program, const DecodedInstruction& inst,
             uop::BoundProgram* bound = nullptr);

  /// True when nothing is in flight and no functional unit is busy: the
  /// state a block's schedule starts from.
  bool idle() const {
    return pendingHead_ == pending_.size() && busyUntil_ <= cycle_;
  }

  /// Runs `block` of the bound program `bound` from the current cycle; the
  /// engine must be idle(), the program counter at the block's leader, and
  /// no trace or monitor armed. Each record's phases run through execProgram
  /// and stage their writes as issue() does, write conflicts included, and
  /// each instruction's staged writes then go straight to the state in
  /// staging order: the block's schedule (uop::Binder::buildBlock)
  /// guarantees that this is the order and the value issue() would retire.
  /// The block's cycles, stalls and their attribution are added once at its
  /// end. Returns true when the block completed, with `branched` telling
  /// whether it wrote the program counter. On a trap, every applied write is
  /// undone, the engine is as it was at entry, and it returns false: the
  /// caller re-runs the block one instruction at a time, which traps as
  /// issue() does.
  ///
  /// With a heatmap set, the block's dynamic reads and its writes are
  /// counted as they run, and the program counter holds the last
  /// instruction's address while that one runs, as issue() would find it,
  /// so its branch counts as issue()'s does; the caller adds the block's
  /// other counts (Block::reads and the PC writes between its instructions).
  /// A trap takes every count back.
  bool runBlock(uop::BoundProgram& bound, const uop::Block& block,
                bool& branched);

  std::uint64_t cycle() const { return cycle_; }

  /// Commits every still-pending write (used before final state inspection,
  /// where in-flight latencies should not hide results).
  void drain();

  void reset();

  // --- XTRACE hooks (all nullable; a disabled hook costs one branch) --------
  /// Ring buffer receiving issue/stall/write-back events.
  void setTrace(obs::TraceBuffer* trace) { trace_ = trace; }
  /// Heatmap receiving one countRead per architectural read the core
  /// performs (State counts the writes, see Xsim::enableProfile); runBlock
  /// counts only a block's dynamic reads.
  void setHeatmap(obs::StorageHeatmap* heat) { heat_ = heat; }

 private:
  /// One delayed write, staged or in flight, built once in its place in
  /// the queue. Trivially copyable: the value of a storage at most 64 bits
  /// wide is the word itself, and a wider storage's value sits in wide_,
  /// `value` being its index there.
  struct Pending {
    Pending(const uop::WriteSlot& lv, std::uint64_t v, std::uint64_t cycle,
            std::uint64_t id)
        : elem(lv.elem),
          value(v),
          commitCycle(cycle + lv.latency - 1),
          instrId(id),
          si(lv.si),
          stallCost(lv.stallCost),
          hi(std::uint16_t(lv.hi)),
          lo(std::uint16_t(lv.lo)),
          hasSlice(lv.hasSlice),
          indexed(false) {}

    std::uint64_t elem;
    std::uint64_t value;
    std::uint64_t commitCycle;  ///< retires at the END of this cycle
    std::uint64_t instrId;      ///< issuing instruction (for phase B)
    std::uint32_t si;
    std::uint32_t stallCost;    ///< producer's Stall; 0 = bypassable
    std::uint16_t hi, lo;       ///< slice bounds (at most 4095)
    bool hasSlice;
    /// Counted in pendingBySi_. A write that retires inside its own
    /// instruction's cycle window is not: no other instruction's read can
    /// see it in flight, and its own phase-B reads skip it anyway.
    bool indexed;
  };

  const Machine& machine_;
  State& state_;
  Stats& stats_;
  const unsigned pcIndex_;
  /// The delayed-write queue. Entries [pendingHead_, stageMark_) are in
  /// flight, sorted by commit cycle and, within one, by staging order, so
  /// commitUpTo retires a prefix by advancing the head. Entries from
  /// stageMark_ on are the writes the phase in progress has staged, in
  /// staging order: reads do not see them, a stall retry or a trap drops
  /// them by truncating the queue to the mark, and publishStaged moves the
  /// mark past them, moving each back into commit order as it goes.
  std::vector<Pending> pending_;
  std::size_t pendingHead_ = 0;
  std::size_t stageMark_ = 0;
  /// Values of pending writes to storages wider than 64 bits, and the free
  /// entries among them.
  std::vector<BitVector> wide_;
  std::vector<std::uint32_t> wideFree_;
  /// Overlay index: indexed in-flight entries per storage. readLoc skips
  /// the pending scan entirely for storages with nothing in flight (the
  /// common case), which is what de-quadratifies the read path.
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
  /// The issuing instruction's interlock stalls: storage, cycles.
  std::vector<std::pair<unsigned, std::uint64_t>> dataStalls_;
  bool phaseB_ = false;

  // XTRACE observers (null when disabled).
  obs::TraceBuffer* trace_ = nullptr;
  obs::StorageHeatmap* heat_ = nullptr;

  /// The word each write runBlock applied replaced, in applying order.
  struct Undo {
    unsigned si;
    std::uint64_t elem;
    std::uint64_t word;
  };
  std::vector<Undo> undo_;
  /// The dynamic reads a profiled runBlock has made, counted when the block
  /// completes.
  std::vector<std::pair<unsigned, std::uint64_t>> readLog_;
  /// Appends to readLog_. Out of line: a vector append inlined into the
  /// dispatch loop cost a profiled block about 10 % per issue.
  void logRead(unsigned si, std::uint64_t elem);

  class OpContext;

  /// The pending-write overlay of one read: counts it in the heatmap, calls
  /// `forward(p)` for every in-flight write the reader sees, oldest first,
  /// and records the interlock stall of every write it must wait for.
  template <class Forward>
  void overlayPending(unsigned si, std::uint64_t elem, Forward forward) const;
  /// Reads a location through the overlay: the interpreter's BitVector read.
  BitVector readLoc(unsigned si, std::uint64_t elem) const;
  /// The same read on the low word, for storages at most 64 bits wide (the
  /// micro-op engine's reads). Inline, because most reads find nothing in
  /// flight and no heatmap to count in.
  std::uint64_t readNarrow(unsigned si, std::uint64_t elem) const {
    const std::uint64_t v = state_.readWord(si, elem);
    if (heat_ || pendingBySi_[si] != 0) return overlayNarrow(si, elem, v);
    return v;
  }
  /// readNarrow's overlay of the in-flight writes on the state word `v`.
  std::uint64_t overlayNarrow(unsigned si, std::uint64_t elem,
                              std::uint64_t v) const;
  /// Retires every in-flight write due by the end of `cycleInclusive`.
  void commitUpTo(std::uint64_t cycleInclusive) {
    if (pendingHead_ != pending_.size() &&
        pending_[pendingHead_].commitCycle <= cycleInclusive)
      retireDue(cycleInclusive);
  }
  void retireDue(std::uint64_t cycleInclusive);
  void advanceTo(std::uint64_t newCycle);
  /// Stages a write of `word`, or of `*wide` when the storage is wider than
  /// 64 bits, at the end of the queue; throws on a write conflict within
  /// the phase.
  void stageWrite(const uop::WriteSlot& lv, std::uint64_t word,
                  BitVector* wide) {
    if (pending_.size() != stageMark_) checkConflict(lv);
    pending_.emplace_back(lv, wide ? allocWide(std::move(*wide)) : word,
                          cycle_, instrId_);
  }
  /// Throws if a write the phase has staged drives a bit `lv` drives.
  void checkConflict(const uop::WriteSlot& lv) const;
  /// Puts the phase's staged writes in flight; those retiring after
  /// `windowEnd`, the last cycle of the issuing instruction, go into the
  /// overlay index.
  void publishStaged(std::uint64_t windowEnd);
  /// Indexes every in-flight write, for a trap that leaves the issuing
  /// instruction's writes in flight past its window.
  void indexAll();
  /// Drops the writes staged by the phase in progress.
  void discardStaged();
  /// Writes every staged entry of the queue to the state in staging order,
  /// logging the words it replaces in undo_, and empties the queue.
  void applyStaged();
  std::uint32_t allocWide(BitVector&& value);
  bool isWide(unsigned si) const { return state_.width(si) > 64; }
  uop::WriteSlot resolveLvalue(const rtl::Lvalue& lv,
                               const OpContext& ctx) const;
  void execStmts(const std::vector<rtl::StmtPtr>& stmts, const OpContext& ctx,
                 unsigned latency, unsigned stallCost);
  void execOptionSideEffects(const OpContext& ctx, unsigned latency,
                             unsigned stallCost);
  /// Interprets phase A (or, with `phaseB`, phase B) of the instruction
  /// whose per-field contexts are `ctxs`.
  void interpretPhase(const DecodedOp* ops, const std::vector<OpContext>& ctxs,
                      bool phaseB);
  /// runBlock without (kProfile false) or with a heatmap.
  template <bool kProfile>
  bool runBlockAs(uop::BoundProgram& bound, const uop::Block& block,
                  bool& branched);
  /// Runs phase A (or, with `phaseB`, phase B) of the bound record at
  /// `address`: the micro-op dispatch loop, defined in uop.cpp.
  /// `kBlockProfile` selects a profiled runBlock's reads (readUop).
  template <bool kBlockProfile>
  void execProgram(uop::BoundProgram& prog, std::uint64_t address,
                   bool phaseB);
  /// A bound read of `elem` of storage `u.a`: through the overlay, or, in a
  /// profiled block, where nothing is in flight, from the state, logging it
  /// when it is dynamic.
  template <bool kBlockProfile>
  std::uint64_t readUop(const uop::Uop& u, std::uint64_t elem) {
    if constexpr (kBlockProfile) {
      const std::uint64_t v = state_.readWord(u.a, elem);
      if (u.dynamic) logRead(u.a, elem);
      return v;
    } else {
      return readNarrow(u.a, elem);
    }
  }

  friend class OpContext;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_CORE_H
