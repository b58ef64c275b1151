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
  OpContext(const ExecEngine& eng, const std::vector<Param>& params,
            const std::vector<DecodedParam>& dparams)
      : eng_(eng), params_(&params), dparams_(&dparams) {}

  const std::vector<Param>& params() const { return *params_; }
  const std::vector<DecodedParam>& dparams() const { return *dparams_; }
  const ExecEngine& engine() const { return eng_; }

  BitVector paramValue(unsigned i) const override {
    const Param& p = (*params_)[i];
    const DecodedParam& dp = (*dparams_)[i];
    if (p.kind == ParamKind::Token) return dp.encoded;
    const NonTerminal& nt = eng_.machine_.nonTerminals[p.index];
    const NtOption& opt = nt.options[dp.ntOption];
    if (!opt.value)
      throw EvalError(cat("non-terminal '", nt.name,
                          "' option has no value but was read"));
    OpContext child(eng_, opt.params, dp.sub);
    return rtl::evalExpr(*opt.value, child);
  }

  BitVector readStorage(unsigned si) const override {
    return eng_.readLoc(si, 0);
  }

  BitVector readElement(unsigned si, const BitVector& index) const override {
    return eng_.readLoc(si, index.toUint64());
  }

 private:
  const ExecEngine& eng_;
  const std::vector<Param>* params_;
  const std::vector<DecodedParam>* dparams_;
};

ExecEngine::ExecEngine(const Machine& machine, State& state)
    : machine_(machine),
      state_(state),
      pendingBySi_(machine.storages.size(), 0) {}

void ExecEngine::reset() {
  pending_.clear();
  pendingHead_ = 0;
  wide_.clear();
  wideFree_.clear();
  std::fill(pendingBySi_.begin(), pendingBySi_.end(), 0);
  stagedLocal_.clear();
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
  for (std::size_t i = pendingHead_; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    if (p.si != si || p.elem != elem) continue;
    if (phaseB_) {
      // Side effects read the same pre-cycle state as the actions ("after"
      // orders the WRITES, not the reads — this matches the hardware model,
      // where flag logic computes from operands in parallel with the ALU).
      // Writes still in flight from EARLIER instructions are forwarded:
      // phase A already charged any stall they warranted.
      if (p.instrId != instrId_) forward(p);
    } else if (p.stallCost == 0 || p.instrId == instrId_) {
      // Full bypass (Stall == 0) and this instruction's own staged values.
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

std::uint64_t ExecEngine::readNarrow(unsigned si, std::uint64_t elem) const {
  std::uint64_t v = state_.readWord(si, elem);
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
  for (const Pending& p : stagedLocal_)
    if (isWide(p.si)) wideFree_.push_back(std::uint32_t(p.value));
  stagedLocal_.clear();
}

void ExecEngine::insertPending(const Pending& p) {
  // Keep the queue sorted by commit cycle — retirement order — so
  // commitUpTo pops a prefix instead of stable_sorting the whole vector. A
  // new entry goes after every entry retiring in the same cycle, so later
  // writes win deterministically.
  ++pendingBySi_[p.si];
  // Common case: staging order already matches retirement order (equal
  // latencies), so the new entry appends.
  if (pending_.size() == pendingHead_ ||
      pending_.back().commitCycle <= p.commitCycle) {
    pending_.push_back(p);
    return;
  }
  auto it = std::upper_bound(pending_.begin() + std::ptrdiff_t(pendingHead_),
                             pending_.end(), p.commitCycle,
                             [](std::uint64_t c, const Pending& q) {
                               return c < q.commitCycle;
                             });
  pending_.insert(it, p);
}

void ExecEngine::commitUpTo(std::uint64_t cycleInclusive) {
  // pending_ is sorted by commit cycle: retire the due prefix.
  std::size_t i = pendingHead_;
  if (i == pending_.size() || pending_[i].commitCycle > cycleInclusive)
    return;
  for (; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    if (p.commitCycle > cycleInclusive) break;
    --pendingBySi_[p.si];
    if (!isWide(p.si)) {
      std::uint64_t v = p.value;
      if (p.hasSlice)
        v = narrow::withSlice(state_.readWord(p.si, p.elem), p.hi, p.lo, v);
      state_.writeWord(p.si, p.elem, v, p.commitCycle);
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
    if (static_cast<int>(p.si) == machine_.pcIndex) pcCommitted_ = true;
  }
  if (i == pending_.size()) {
    pending_.clear();
    pendingHead_ = 0;
  } else {
    pendingHead_ = i;
    // Reclaim the retired prefix once it outweighs the live entries, so a
    // queue that never empties stays bounded at amortised O(1) per entry.
    if (pendingHead_ > 32 && 2 * pendingHead_ > pending_.size()) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + std::ptrdiff_t(pendingHead_));
      pendingHead_ = 0;
    }
  }
}

void ExecEngine::advanceTo(std::uint64_t newCycle) {
  if (newCycle > cycle_) {
    commitUpTo(newCycle - 1);
    cycle_ = newCycle;
  }
}

void ExecEngine::stageWrite(const uop::WriteSlot& lv, std::uint64_t word,
                            BitVector* wide) {
  // Two statements of the same instruction phase driving the same bits is
  // write contention, whatever their latencies — one functional unit's
  // write port cannot carry both (and the flow-through hardware model
  // would resolve the race differently than latency ordering would).
  // Cross-instruction write-after-write races are legal (the later
  // instruction wins, enforced by commit order); only two statements of the
  // same instruction phase driving the same bits are a description bug.
  if (!stagedLocal_.empty()) {
    const unsigned pHi =
        lv.hasSlice ? lv.hi : machine_.storages[lv.si].width - 1;
    const unsigned pLo = lv.hasSlice ? lv.lo : 0;
    for (const Pending& q : stagedLocal_) {
      if (q.si != lv.si || q.elem != lv.elem) continue;
      const unsigned qHi = q.hasSlice ? q.hi : pHi;
      const unsigned qLo = q.hasSlice ? q.lo : 0;
      if (pLo <= qHi && qLo <= pHi)
        throw EvalError(cat("write conflict: two RTL statements write ",
                            machine_.storages[lv.si].name, "[", lv.elem,
                            "] in the same cycle"));
    }
  }
  Pending p;
  p.si = lv.si;
  p.elem = lv.elem;
  p.hasSlice = lv.hasSlice;
  p.hi = lv.hi;
  p.lo = lv.lo;
  p.value = wide ? allocWide(std::move(*wide)) : word;
  p.commitCycle = cycle_ + lv.latency - 1;
  p.stallCost = lv.stallCost;
  p.instrId = instrId_;
  stagedLocal_.push_back(p);
}

uop::WriteSlot ExecEngine::resolveLvalue(const rtl::Lvalue& lv,
                                         const OpContext& ctx) const {
  if (lv.isParam) {
    const Param& p = ctx.params()[lv.paramIndex];
    const DecodedParam& dp = ctx.dparams()[lv.paramIndex];
    const NonTerminal& nt = machine_.nonTerminals[p.index];
    const NtOption& opt = nt.options[dp.ntOption];
    if (!opt.lvalue)
      throw EvalError(cat("non-terminal '", nt.name,
                          "' option has no lvalue but was written"));
    OpContext child(*this, opt.params, dp.sub);
    return resolveLvalue(*opt.lvalue, child);
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
    const DecodedParam& dp = ctx.dparams()[i];
    const NtOption& opt = machine_.nonTerminals[p.index].options[dp.ntOption];
    OpContext child(*this, opt.params, dp.sub);
    execStmts(opt.sideEffects, child, latency, stallCost);
    execOptionSideEffects(child, latency, stallCost);
  }
}

ExecEngine::IssueInfo ExecEngine::issue(const DecodedInstruction& inst,
                                        uop::BoundProgram* bound) {
  IssueInfo info;
  ++instrId_;

  // Structural hazards: every functional unit the instruction touches must
  // be free (Usage timing, paper §2.1.3).
  if (busyUntil_ > cycle_) {
    info.structStallCycles = busyUntil_ - cycle_;
    if (statsSink_)
      statsSink_->structStallsByField[busyField_] += busyUntil_ - cycle_;
    if (trace_)
      trace_->record({.kind = obs::EventKind::StructStall,
                      .field = static_cast<std::uint16_t>(busyField_),
                      .op = 0,
                      .storage = 0,
                      .elem = 0,
                      .cycle = cycle_,
                      .dur = static_cast<std::uint32_t>(busyUntil_ - cycle_),
                      .addr = inst.address});
    advanceTo(busyUntil_);
  }

  // Interpreter path only: per-field evaluation contexts are invariant
  // across the phase-A hazard-retry loop, so they are hoisted and a retry
  // redoes only the evaluation itself. The bound path has no per-issue
  // allocations at all.
  std::vector<OpContext> ctxs;
  if (!bound) {
    ctxs.reserve(inst.ops.size());
    for (std::size_t f = 0; f < inst.ops.size(); ++f)
      ctxs.emplace_back(
          *this, machine_.fields[f].operations[inst.ops[f].opIndex].params,
          inst.ops[f].params);
  }

  try {
    // Phase A with hazard-probe retry: evaluate all actions against the
    // pre-cycle state; a read of a location with a pending interlocked write
    // records the stall needed, and the whole evaluation is redone after
    // advancing (the state view changes once the write retires).
    for (;;) {
      if (cycle_ > 0) commitUpTo(cycle_ - 1);
      requiredStall_ = 0;
      phaseB_ = false;
      if (bound) {
        execProgram(*bound, inst.address, false);
      } else {
        for (std::size_t f = 0; f < inst.ops.size(); ++f) {
          const DecodedOp& dop = inst.ops[f];
          execStmts(machine_.fields[f].operations[dop.opIndex].action,
                    ctxs[f], dop.effLatency, dop.effStall);
        }
      }
      if (requiredStall_ == 0) break;
      info.dataStallCycles += requiredStall_;
      if (statsSink_)
        statsSink_->dataStallsByStorage[stallStorage_] += requiredStall_;
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
    for (const Pending& w : stagedLocal_) insertPending(w);
    stagedLocal_.clear();
    phaseB_ = true;
    if (bound) {
      execProgram(*bound, inst.address, true);
    } else {
      for (std::size_t f = 0; f < inst.ops.size(); ++f) {
        const DecodedOp& dop = inst.ops[f];
        execStmts(machine_.fields[f].operations[dop.opIndex].sideEffects,
                  ctxs[f], dop.effLatency, dop.effStall);
        execOptionSideEffects(ctxs[f], dop.effLatency, dop.effStall);
      }
    }
    for (const Pending& w : stagedLocal_) insertPending(w);
    stagedLocal_.clear();
    phaseB_ = false;
  } catch (const EvalError& e) {
    discardStaged();
    phaseB_ = false;
    info.ok = false;
    info.error = e.what();
    return info;
  }

  // Record issue slots (nop slots are elided — an idle field is visible as
  // a gap in its trace row).
  if (trace_) {
    for (std::size_t f = 0; f < inst.ops.size(); ++f) {
      if (static_cast<int>(inst.ops[f].opIndex) == machine_.fields[f].nopIndex)
        continue;
      trace_->record({.kind = obs::EventKind::Issue,
                      .field = static_cast<std::uint16_t>(f),
                      .op = inst.ops[f].opIndex,
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
  info.pcCommitted = pcCommitted_;
  return info;
}

void ExecEngine::drain() {
  commitUpTo(~std::uint64_t{0});
}

}  // namespace isdl::sim
