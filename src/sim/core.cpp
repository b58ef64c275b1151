#include "sim/core.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/uop.h"
#include "support/strings.h"

namespace isdl::sim {

using rtl::EvalError;

/// Evaluation context for one operation (or, recursively, one selected
/// non-terminal option). Parameter reads resolve token values directly and
/// evaluate non-terminal option `value` expressions in a child context;
/// storage reads go through the engine's pending-write overlay.
class ExecEngine::OpContext final : public rtl::EvalContext {
 public:
  OpContext(const ExecEngine& eng, const DecodedProgram& program,
            const std::vector<Param>& params, const DecodedParam* dparams)
      : eng_(eng), program_(&program), params_(&params), dparams_(dparams) {}

  const std::vector<Param>& params() const { return *params_; }
  const DecodedParam& dparam(std::size_t i) const { return dparams_[i]; }
  /// The context of the option non-terminal parameter `i` selected.
  OpContext option(std::size_t i, const NtOption& opt) const {
    return OpContext(eng_, *program_, opt.params,
                     program_->subOf(dparams_[i]));
  }

  BitVector paramValue(unsigned i) const override {
    const Param& p = (*params_)[i];
    const DecodedParam& dp = dparams_[i];
    if (p.kind == ParamKind::Token) return dp.encoded;
    const NonTerminal& nt = eng_.machine_.nonTerminals[p.index];
    const NtOption& opt = nt.options[dp.ntOption];
    if (!opt.value)
      throw EvalError(cat("non-terminal '", nt.name,
                          "' option has no value but was read"));
    return rtl::evalExpr(*opt.value, option(i, opt));
  }

  BitVector readStorage(unsigned si) const override {
    return eng_.readLoc(si, 0);
  }

  BitVector readElement(unsigned si, const BitVector& index) const override {
    return eng_.readLoc(si, index.toUint64());
  }

 private:
  const ExecEngine& eng_;
  const DecodedProgram* program_;
  const std::vector<Param>* params_;
  const DecodedParam* dparams_;
};

ExecEngine::ExecEngine(const Machine& machine, State& state, Stats& stats)
    : machine_(machine),
      state_(state),
      stats_(stats),
      pcIndex_(unsigned(machine.pcIndex)),
      pendingBySi_(machine.storages.size(), 0) {}

void ExecEngine::reset() {
  pending_.clear();
  pendingHead_ = 0;
  stageMark_ = 0;
  wide_.clear();
  wideFree_.clear();
  std::fill(pendingBySi_.begin(), pendingBySi_.end(), 0);
  busyUntil_ = 0;
  busyField_ = 0;
  cycle_ = 0;
  instrId_ = 0;
  pcCommitted_ = false;
}

template <class Forward>
void ExecEngine::overlayPending(unsigned si, std::uint64_t elem,
                                Forward forward) const {
  if (heat_) heat_->countRead(si, elem);
  if (pendingBySi_[si] == 0) return;  // nothing in flight for this storage
  for (std::size_t i = pendingHead_; i < stageMark_; ++i) {
    const Pending& p = pending_[i];
    if (p.si != si || p.elem != elem) continue;
    if (phaseB_) {
      // Side effects read the same pre-cycle state as the actions ("after"
      // orders the WRITES, not the reads — this matches the hardware model,
      // where flag logic computes from operands in parallel with the ALU).
      // Writes still in flight from EARLIER instructions are forwarded:
      // phase A already charged any stall they warranted.
      if (p.instrId != instrId_) forward(p);
    } else if (p.stallCost == 0) {
      // Full bypass (Stall == 0); this instruction's writes are still staged.
      forward(p);
    } else {
      std::uint64_t needed = p.commitCycle + 1 - cycle_;
      if (needed > requiredStall_) {
        requiredStall_ = needed;
        stallStorage_ = p.si;  // the producer the interlock waits on
      }
    }
  }
}

BitVector ExecEngine::readLoc(unsigned si, std::uint64_t elem) const {
  if (!isWide(si)) return BitVector(state_.width(si), readNarrow(si, elem));
  BitVector v = state_.read(si, elem);
  overlayPending(si, elem, [&](const Pending& p) {
    const BitVector& w = wide_[p.value];
    v = p.hasSlice ? v.withSlice(p.hi, p.lo, w) : w;
  });
  return v;
}

std::uint64_t ExecEngine::overlayNarrow(unsigned si, std::uint64_t elem,
                                        std::uint64_t v) const {
  overlayPending(si, elem, [&](const Pending& p) {
    v = p.hasSlice ? narrow::withSlice(v, p.hi, p.lo, p.value) : p.value;
  });
  return v;
}

std::uint32_t ExecEngine::allocWide(BitVector&& value) {
  if (wideFree_.empty()) {
    wide_.push_back(std::move(value));
    return std::uint32_t(wide_.size() - 1);
  }
  std::uint32_t i = wideFree_.back();
  wideFree_.pop_back();
  wide_[i] = std::move(value);
  return i;
}

void ExecEngine::discardStaged() {
  for (std::size_t i = stageMark_; i < pending_.size(); ++i)
    if (isWide(pending_[i].si))
      wideFree_.push_back(std::uint32_t(pending_[i].value));
  pending_.erase(pending_.begin() + std::ptrdiff_t(stageMark_),
                 pending_.end());
}

void ExecEngine::publishStaged(std::uint64_t windowEnd) {
  // The in-flight entries stay sorted by commit cycle — retirement order —
  // so commitUpTo pops a prefix. A staged entry goes after every entry
  // retiring in the same cycle, so later writes win deterministically. In
  // the common case staging order already is retirement order (equal
  // latencies) and the entry stays where it was built.
  const std::size_t end = pending_.size();
  for (std::size_t i = stageMark_; i < end; ++i) {
    Pending& p = pending_[i];
    const std::uint64_t c = p.commitCycle;
    if (c > windowEnd) {
      p.indexed = true;
      ++pendingBySi_[p.si];
    }
    if (i == pendingHead_ || pending_[i - 1].commitCycle <= c) continue;
    const auto first = pending_.begin() + std::ptrdiff_t(pendingHead_);
    const auto it = pending_.begin() + std::ptrdiff_t(i);
    const auto to = std::upper_bound(
        first, it, c,
        [](std::uint64_t cc, const Pending& q) { return cc < q.commitCycle; });
    std::rotate(to, it, it + 1);
  }
  stageMark_ = end;
}

void ExecEngine::indexAll() {
  for (std::size_t i = pendingHead_; i < pending_.size(); ++i) {
    Pending& p = pending_[i];
    if (p.indexed) continue;
    p.indexed = true;
    ++pendingBySi_[p.si];
  }
}

void ExecEngine::retireDue(std::uint64_t cycleInclusive) {
  // The in-flight entries are sorted by commit cycle: retire the due
  // prefix. Nothing is staged while this runs.
  std::size_t i = pendingHead_;
  const std::size_t n = pending_.size();
  for (; i < n; ++i) {
    const Pending& p = pending_[i];
    if (p.commitCycle > cycleInclusive) break;
    if (p.indexed) --pendingBySi_[p.si];
    // Every element was checked against the storage's depth before it was
    // staged: at bind time for a constant index, by SetLv, or by
    // resolveLvalue.
    if (!isWide(p.si)) {
      std::uint64_t v = p.value;
      if (p.hasSlice)
        v = narrow::withSlice(state_.wordInRange(p.si, p.elem), p.hi, p.lo,
                              v);
      state_.writeWordInRange(p.si, p.elem, v, p.commitCycle);
    } else {
      BitVector& w = wide_[p.value];
      state_.write(p.si, p.elem,
                   p.hasSlice
                       ? state_.read(p.si, p.elem).withSlice(p.hi, p.lo, w)
                       : w,
                   p.commitCycle);
      wideFree_.push_back(std::uint32_t(p.value));
    }
    if (trace_)
      trace_->record({.kind = obs::EventKind::WriteBack,
                      .field = 0,
                      .op = 0,
                      .storage = p.si,
                      .elem = p.elem,
                      .cycle = p.commitCycle,
                      .dur = 1,
                      .addr = p.instrId});
    if (p.si == pcIndex_) pcCommitted_ = true;
  }
  if (i == n) {
    pending_.clear();
    pendingHead_ = 0;
  } else {
    pendingHead_ = i;
    // Reclaim the retired prefix once it outweighs the live entries, so a
    // queue that never empties stays bounded at amortised O(1) per entry.
    if (pendingHead_ > 32 && 2 * pendingHead_ > n) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + std::ptrdiff_t(pendingHead_));
      pendingHead_ = 0;
    }
  }
  stageMark_ = pending_.size();
}

void ExecEngine::advanceTo(std::uint64_t newCycle) {
  if (newCycle > cycle_) {
    commitUpTo(newCycle - 1);
    cycle_ = newCycle;
  }
}

void ExecEngine::checkConflict(const uop::WriteSlot& lv) const {
  // Two statements of the same instruction phase driving the same bits is
  // write contention, whatever their latencies — one functional unit's
  // write port cannot carry both (and the flow-through hardware model
  // would resolve the race differently than latency ordering would).
  // Cross-instruction write-after-write races are legal (the later
  // instruction wins, enforced by commit order); only two statements of the
  // same instruction phase driving the same bits are a description bug.
  const unsigned pHi = lv.hasSlice ? lv.hi : machine_.storages[lv.si].width - 1;
  const unsigned pLo = lv.hasSlice ? lv.lo : 0;
  for (std::size_t i = stageMark_; i < pending_.size(); ++i) {
    const Pending& q = pending_[i];
    if (q.si != lv.si || q.elem != lv.elem) continue;
    const unsigned qHi = q.hasSlice ? q.hi : pHi;
    const unsigned qLo = q.hasSlice ? q.lo : 0;
    if (pLo <= qHi && qLo <= pHi)
      throw EvalError(cat("write conflict: two RTL statements write ",
                          machine_.storages[lv.si].name, "[", lv.elem,
                          "] in the same cycle"));
  }
}

uop::WriteSlot ExecEngine::resolveLvalue(const rtl::Lvalue& lv,
                                         const OpContext& ctx) const {
  if (lv.isParam) {
    const Param& p = ctx.params()[lv.paramIndex];
    const NonTerminal& nt = machine_.nonTerminals[p.index];
    const NtOption& opt = nt.options[ctx.dparam(lv.paramIndex).ntOption];
    if (!opt.lvalue)
      throw EvalError(cat("non-terminal '", nt.name,
                          "' option has no lvalue but was written"));
    return resolveLvalue(*opt.lvalue, ctx.option(lv.paramIndex, opt));
  }
  uop::WriteSlot r;
  r.si = lv.storageIndex;
  r.elem = lv.index ? rtl::evalExpr(*lv.index, ctx).toUint64() : 0;
  if (r.elem >= machine_.storages[r.si].depth)
    throw EvalError(cat("write to ", machine_.storages[r.si].name, "[",
                        r.elem, "] is out of range"));
  r.hasSlice = lv.hasSlice;
  r.hi = lv.sliceHi;
  r.lo = lv.sliceLo;
  return r;
}

void ExecEngine::execStmts(const std::vector<rtl::StmtPtr>& stmts,
                           const OpContext& ctx, unsigned latency,
                           unsigned stallCost) {
  for (const auto& stmt : stmts) {
    switch (stmt->kind) {
      case rtl::StmtKind::Assign: {
        uop::WriteSlot lv = resolveLvalue(stmt->dest, ctx);
        lv.latency = latency;
        lv.stallCost = stallCost;
        BitVector value = rtl::evalExpr(*stmt->value, ctx);
        if (isWide(lv.si))
          stageWrite(lv, 0, &value);
        else
          stageWrite(lv, value.toUint64(), nullptr);
        break;
      }
      case rtl::StmtKind::If: {
        BitVector cond = rtl::evalExpr(*stmt->cond, ctx);
        const auto& branch = cond.isZero() ? stmt->elseStmts : stmt->thenStmts;
        execStmts(branch, ctx, latency, stallCost);
        break;
      }
    }
  }
}

void ExecEngine::execOptionSideEffects(const OpContext& ctx, unsigned latency,
                                       unsigned stallCost) {
  // Side effects contributed by selected non-terminal options (e.g. a
  // post-increment addressing mode), recursively.
  for (std::size_t i = 0; i < ctx.params().size(); ++i) {
    const Param& p = ctx.params()[i];
    if (p.kind != ParamKind::NonTerminal) continue;
    const NtOption& opt =
        machine_.nonTerminals[p.index].options[ctx.dparam(i).ntOption];
    const OpContext child = ctx.option(i, opt);
    execStmts(opt.sideEffects, child, latency, stallCost);
    execOptionSideEffects(child, latency, stallCost);
  }
}

void ExecEngine::interpretPhase(const DecodedOp* ops,
                                const std::vector<OpContext>& ctxs,
                                bool phaseB) {
  for (std::size_t f = 0; f < ctxs.size(); ++f) {
    const DecodedOp& dop = ops[f];
    const Operation& op = machine_.fields[f].operations[dop.opIndex];
    execStmts(phaseB ? op.sideEffects : op.action, ctxs[f], dop.effLatency,
              dop.effStall);
    if (phaseB) execOptionSideEffects(ctxs[f], dop.effLatency, dop.effStall);
  }
}

bool ExecEngine::issue(const DecodedProgram& program,
                       const DecodedInstruction& inst,
                       uop::BoundProgram* bound) {
  ++instrId_;

  // Structural hazards: every functional unit the instruction touches must
  // be free (Usage timing, paper §2.1.3).
  // Stalls are attributed (by field and by storage) with the totals, once
  // the instruction completes: a trapping instruction's count nowhere.
  std::uint64_t structStall = 0;
  const unsigned structField = busyField_;
  if (busyUntil_ > cycle_) {
    structStall = busyUntil_ - cycle_;
    if (trace_)
      trace_->record({.kind = obs::EventKind::StructStall,
                      .field = static_cast<std::uint16_t>(busyField_),
                      .op = 0,
                      .storage = 0,
                      .elem = 0,
                      .cycle = cycle_,
                      .dur = static_cast<std::uint32_t>(structStall),
                      .addr = inst.address});
    advanceTo(busyUntil_);
  }

  // Interpreter only: per-field evaluation contexts are invariant across
  // the phase-A hazard-retry loop, so they are built once and a retry
  // redoes only the evaluation itself. The bound records need none.
  const DecodedOp* ops = program.opsOf(inst);
  std::vector<OpContext> ctxs;
  if (!bound) {
    const std::size_t numFields = machine_.fields.size();
    ctxs.reserve(numFields);
    for (std::size_t f = 0; f < numFields; ++f)
      ctxs.emplace_back(*this, program,
                        machine_.fields[f].operations[ops[f].opIndex].params,
                        program.paramsOf(ops[f]));
  }
  auto runPhase = [&](bool phaseB) {
    stageMark_ = pending_.size();
    phaseB_ = phaseB;
    if (bound)
      execProgram<false>(*bound, inst.address, phaseB);
    else
      interpretPhase(ops, ctxs, phaseB);
  };

  std::uint64_t dataStall = 0;
  dataStalls_.clear();
  try {
    // Phase A with hazard-probe retry: evaluate all actions against the
    // pre-cycle state; a read of a location with a pending interlocked write
    // records the stall needed, and the whole evaluation is redone after
    // advancing (the state view changes once the write retires).
    for (;;) {
      if (cycle_ > 0) commitUpTo(cycle_ - 1);
      requiredStall_ = 0;
      runPhase(false);
      if (requiredStall_ == 0) break;
      dataStall += requiredStall_;
      dataStalls_.push_back({stallStorage_, requiredStall_});
      if (trace_)
        trace_->record({.kind = obs::EventKind::DataStall,
                        .field = 0,
                        .op = 0,
                        .storage = stallStorage_,
                        .elem = 0,
                        .cycle = cycle_,
                        .dur = static_cast<std::uint32_t>(requiredStall_),
                        .addr = inst.address});
      discardStaged();
      advanceTo(cycle_ + requiredStall_);
    }

    // Publish phase-A writes, then run phase B (side effects observe them).
    const std::uint64_t windowEnd = cycle_ + inst.cycles - 1;
    publishStaged(windowEnd);
    if (!bound || bound->hasPhaseB(inst.address)) {
      runPhase(true);
      publishStaged(windowEnd);
      phaseB_ = false;
    }
  } catch (...) {
    discardStaged();
    indexAll();
    phaseB_ = false;
    throw;
  }

  // Record issue slots (nop slots are elided — an idle field is visible as
  // a gap in its trace row).
  if (trace_) {
    for (std::size_t f = 0; f < machine_.fields.size(); ++f) {
      if (static_cast<int>(ops[f].opIndex) == machine_.fields[f].nopIndex)
        continue;
      trace_->record({.kind = obs::EventKind::Issue,
                      .field = static_cast<std::uint16_t>(f),
                      .op = ops[f].opIndex,
                      .storage = 0,
                      .elem = 0,
                      .cycle = cycle_,
                      .dur = inst.cycles,
                      .addr = inst.address});
    }
  }

  // Occupy functional units.
  busyUntil_ = cycle_ + inst.usage;
  busyField_ = inst.usageField;

  // Advance through the instruction's cycle window, retiring writes that
  // fall inside it and tracking PC commits (branch taken).
  pcCommitted_ = false;
  commitUpTo(cycle_ + inst.cycles - 1);
  cycle_ += inst.cycles;
  stats_.cycles = cycle_;
  stats_.dataStallCycles += dataStall;
  stats_.structStallCycles += structStall;
  if (structStall) stats_.structStallsByField[structField] += structStall;
  for (const auto& [storage, cycles] : dataStalls_)
    stats_.dataStallsByStorage[storage] += cycles;
  return pcCommitted_;
}

void ExecEngine::applyStaged() {
  for (const Pending& p : pending_) {
    const std::uint64_t old = state_.wordInRange(p.si, p.elem);
    undo_.push_back({p.si, p.elem, old});
    state_.writeWordInRange(
        p.si, p.elem,
        p.hasSlice ? narrow::withSlice(old, p.hi, p.lo, p.value) : p.value,
        cycle_);
    if (p.si == pcIndex_) pcCommitted_ = true;
  }
  pending_.clear();
  stageMark_ = 0;
}

void ExecEngine::logRead(unsigned si, std::uint64_t elem) {
  readLog_.emplace_back(si, elem);
}

bool ExecEngine::runBlock(uop::BoundProgram& bound, const uop::Block& block,
                          bool& branched) {
  return heat_ ? runBlockAs<true>(bound, block, branched)
               : runBlockAs<false>(bound, block, branched);
}

template <bool kProfile>
bool ExecEngine::runBlockAs(uop::BoundProgram& bound, const uop::Block& block,
                            bool& branched) {
  // The queue is empty and stays so between instructions: each phase
  // stages from the queue's start (phase B behind phase A's mark), and
  // nothing is ever indexed, so every read goes straight to the state.
  const std::uint64_t entryId = instrId_;
  const std::uint64_t leader = block.addresses.front();
  undo_.clear();
  if constexpr (kProfile) readLog_.clear();
  pcCommitted_ = false;
  try {
    for (const std::uint64_t addr : block.addresses) {
      if (kProfile && addr == block.addresses.back() && addr != leader)
        state_.storeWordInRange(pcIndex_, 0, addr);
      ++instrId_;
      execProgram<kProfile>(bound, addr, false);
      if (bound.hasPhaseB(addr)) {
        stageMark_ = pending_.size();
        execProgram<kProfile>(bound, addr, true);
      }
      applyStaged();
    }
  } catch (const EvalError&) {
    // Undone in reverse, each element holds the word its undone write put
    // there, so a write that changed it is one the heatmap counted.
    pending_.clear();
    stageMark_ = 0;
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      if (kProfile && state_.wordInRange(it->si, it->elem) != it->word)
        heat_->uncountWrite(it->si, it->elem);
      state_.storeWordInRange(it->si, it->elem, it->word);
    }
    state_.storeWordInRange(pcIndex_, 0, leader);
    instrId_ = entryId;
    return false;
  }
  if constexpr (kProfile)
    for (const auto& [si, elem] : readLog_) heat_->countRead(si, elem);

  busyUntil_ = cycle_ + block.busyUntil;
  busyField_ = block.busyField;
  cycle_ += block.cycles;
  stats_.cycles = cycle_;
  for (const auto& [storage, cycles] : block.dataStalls) {
    stats_.dataStallCycles += cycles;
    stats_.dataStallsByStorage[storage] += cycles;
  }
  for (const auto& [field, cycles] : block.structStalls) {
    stats_.structStallCycles += cycles;
    stats_.structStallsByField[field] += cycles;
  }
  branched = pcCommitted_;
  return true;
}

void ExecEngine::drain() {
  commitUpTo(~std::uint64_t{0});
}

}  // namespace isdl::sim
