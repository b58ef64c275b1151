// The binder, the narrow-width proof and the bound records' dispatch loop.
// The binder mirrors the interpreter's evaluation
// order exactly (sim/core.cpp: evalExpr, resolveLvalue-before-value,
// depth-first option side effects), so the two engines agree on every
// observable: final state, cycle counts, stall attribution, heatmap read
// counts, and which trap fires first.

#include "sim/uop.h"

#include <atomic>

#include "rtl/eval.h"
#include "sim/core.h"
#include "support/strings.h"

namespace isdl::sim::uop {

using rtl::EvalError;

namespace {

std::atomic<bool> gInjectAddFault{false};

}  // namespace

void setTestFaultInjection(bool enabled) {
  gInjectAddFault.store(enabled, std::memory_order_relaxed);
}
bool testFaultInjection() {
  return gInjectAddFault.load(std::memory_order_relaxed);
}

namespace {

/// The width proof behind isNarrow: walks every tree an operation can
/// evaluate, through every option of every non-terminal operand.
class NarrowProof {
 public:
  explicit NarrowProof(const Machine& m) : m_(m) {}

  bool stmts(const std::vector<rtl::StmtPtr>& list,
             const std::vector<Param>& params) const {
    for (const auto& s : list) {
      if (s->kind == rtl::StmtKind::Assign) {
        if (!lvalue(s->dest, params) || !expr(*s->value, params)) return false;
      } else if (!expr(*s->cond, params) || !stmts(s->thenStmts, params) ||
                 !stmts(s->elseStmts, params)) {
        return false;
      }
    }
    return true;
  }

  /// Side effects the options of non-terminal operands contribute.
  bool optionSideEffects(const std::vector<Param>& params) const {
    for (const Param& p : params) {
      if (p.kind != ParamKind::NonTerminal) continue;
      for (const NtOption& opt : m_.nonTerminals[p.index].options)
        if (!stmts(opt.sideEffects, opt.params) ||
            !optionSideEffects(opt.params))
          return false;
    }
    return true;
  }

 private:
  bool expr(const rtl::Expr& e, const std::vector<Param>& params) const {
    // Sema's width bounds every value this node computes, the partial
    // concatenations of a Concat included.
    if (e.width > 64) return false;
    if (e.kind == rtl::ExprKind::Param &&
        params[e.paramIndex].kind == ParamKind::NonTerminal) {
      for (const NtOption& opt :
           m_.nonTerminals[params[e.paramIndex].index].options)
        if (opt.value && !expr(*opt.value, opt.params)) return false;
    }
    for (const auto& operand : e.operands)
      if (!expr(*operand, params)) return false;
    return true;
  }

  bool lvalue(const rtl::Lvalue& lv, const std::vector<Param>& params) const {
    if (lv.isParam) {
      for (const NtOption& opt :
           m_.nonTerminals[params[lv.paramIndex].index].options)
        if (opt.lvalue && !lvalue(*opt.lvalue, opt.params)) return false;
      return true;
    }
    return !lv.index || expr(*lv.index, params);
  }

  const Machine& m_;
};

/// The operands of one operation or selected non-terminal option: the
/// parameter declarations and the values this instruction decoded for them.
struct Operands {
  const std::vector<Param>& params;
  const std::vector<DecodedParam>& values;
};

/// Lowers one decoded instruction into its record. Registers are numbered
/// per record and never reused, so every register has one producer on any
/// path; constants (operand values and folded results) are registers whose
/// value is set here.
class RecordCompiler {
 public:
  RecordCompiler(const Machine& m, bool injectFault, BoundProgram& prog,
                 BoundProgram::Record& rec)
      : m_(m), injectFault_(injectFault), prog_(prog), rec_(rec) {
    rec_.code = std::uint32_t(prog.code.size());
    rec_.regs = std::uint32_t(prog.regs.size());
    rec_.slots = std::uint32_t(prog.slots.size());
  }

  void compile(const DecodedInstruction& inst) {
    // Phase A: every field's action; phase B: every field's side effects,
    // then those of its selected options, depth-first.
    for (std::size_t f = 0; f < inst.ops.size(); ++f) {
      const DecodedOp& dop = inst.ops[f];
      const Operation& op = m_.fields[f].operations[dop.opIndex];
      setTiming(dop);
      compileStmts(op.action, {op.params, dop.params});
    }
    rec_.phaseB = here();
    for (std::size_t f = 0; f < inst.ops.size(); ++f) {
      const DecodedOp& dop = inst.ops[f];
      const Operation& op = m_.fields[f].operations[dop.opIndex];
      setTiming(dop);
      compileStmts(op.sideEffects, {op.params, dop.params});
      compileOptionSideEffects({op.params, dop.params});
    }
    rec_.end = here();
  }

 private:
  void setTiming(const DecodedOp& dop) {
    latency_ = dop.effLatency;
    stallCost_ = dop.effStall;
  }

  std::uint32_t here() const {
    return std::uint32_t(prog_.code.size()) - rec_.code;
  }
  std::uint32_t emit(Uop u) {
    prog_.code.push_back(u);
    return here() - 1;
  }
  Uop& at(std::uint32_t pc) { return prog_.code[rec_.code + pc]; }

  std::uint32_t newReg(narrow::Val v, bool constant) {
    prog_.regs.push_back(v);
    isConst_.push_back(constant);
    return std::uint32_t(isConst_.size() - 1);
  }
  std::uint32_t constant(narrow::Val v) { return newReg(v, true); }
  std::uint32_t constant(const BitVector& v) {
    return constant(narrow::Val{v.toUint64(), v.width()});
  }
  bool isConst(std::uint32_t r) const { return isConst_[r]; }
  narrow::Val val(std::uint32_t r) const { return prog_.regs[rec_.regs + r]; }
  /// Emits value uop `u` into a fresh register.
  std::uint32_t produce(Uop u) {
    u.dst = newReg({}, false);
    emit(u);
    return u.dst;
  }
  void trap(std::string msg) {
    prog_.traps.push_back(std::move(msg));
    emit({.kind = Kind::Trap, .a = std::uint32_t(prog_.traps.size() - 1)});
  }

  /// The non-terminal option operand `i` selected.
  const NtOption& selected(const Operands& ops, unsigned i) const {
    return m_.nonTerminals[ops.params[i].index]
        .options[std::size_t(ops.values[i].ntOption)];
  }

  void compileStmts(const std::vector<rtl::StmtPtr>& stmts,
                    const Operands& ops) {
    for (const auto& stmt : stmts) compileStmt(*stmt, ops);
  }

  void compileOptionSideEffects(const Operands& ops) {
    for (std::size_t i = 0; i < ops.params.size(); ++i) {
      if (ops.params[i].kind != ParamKind::NonTerminal) continue;
      const NtOption& opt = selected(ops, unsigned(i));
      Operands sub{opt.params, ops.values[i].sub};
      compileStmts(opt.sideEffects, sub);
      compileOptionSideEffects(sub);
    }
  }

  std::uint32_t compileExpr(const rtl::Expr& e, const Operands& ops) {
    using rtl::ExprKind;
    switch (e.kind) {
      case ExprKind::Const: return constant(e.constant);
      case ExprKind::Param: {
        const DecodedParam& dp = ops.values[e.paramIndex];
        if (ops.params[e.paramIndex].kind == ParamKind::Token)
          return constant(dp.encoded);
        const NtOption& opt = selected(ops, e.paramIndex);
        if (!opt.value) {
          trap(cat("non-terminal '",
                   m_.nonTerminals[ops.params[e.paramIndex].index].name,
                   "' option has no value but was read"));
          return newReg({}, false);  // never read: the trap ends the issue
        }
        return compileExpr(*opt.value, {opt.params, dp.sub});
      }
      case ExprKind::Read:
        return produce({.kind = Kind::ReadStorage, .a = e.storageIndex});
      case ExprKind::ReadElem: {
        std::uint32_t idx = compileExpr(*e.operands[0], ops);
        return produce(
            {.kind = Kind::ReadElem, .a = e.storageIndex, .b = idx});
      }
      case ExprKind::Slice: {
        std::uint32_t a = compileExpr(*e.operands[0], ops);
        if (isConst(a)) return constant(narrow::slice(val(a), e.sliceHi,
                                                      e.sliceLo));
        return produce({.kind = Kind::Slice,
                        .hi = std::uint16_t(e.sliceHi),
                        .lo = std::uint16_t(e.sliceLo),
                        .a = a});
      }
      case ExprKind::Unary: {
        std::uint32_t a = compileExpr(*e.operands[0], ops);
        if (isConst(a)) return constant(narrow::unOp(e.unOp, val(a)));
        return produce(
            {.kind = Kind::Unary, .op = std::uint8_t(e.unOp), .a = a});
      }
      case ExprKind::Binary: {
        std::uint32_t a = compileExpr(*e.operands[0], ops);
        std::uint32_t b = compileExpr(*e.operands[1], ops);
        rtl::BinOp op = e.binOp;
        if (op == rtl::BinOp::Add && injectFault_)
          op = rtl::BinOp::Sub;  // deliberate mis-lowering (see uop.h)
        if (isConst(a) && isConst(b))
          return constant(narrow::binOp(op, val(a), val(b)));
        return produce(
            {.kind = Kind::Binary, .op = std::uint8_t(op), .a = a, .b = b});
      }
      case ExprKind::Ternary: {
        // Lazy branches, like the interpreter: the untaken side must not
        // evaluate (its reads and traps must not happen).
        std::uint32_t c = compileExpr(*e.operands[0], ops);
        if (isConst(c))
          return compileExpr(*e.operands[val(c).v ? 1 : 2], ops);
        std::uint32_t r = newReg({}, false);
        std::uint32_t bz = emit({.kind = Kind::BranchIfZero, .a = c});
        std::uint32_t t = compileExpr(*e.operands[1], ops);
        emit({.kind = Kind::Move, .dst = r, .a = t});
        std::uint32_t j = emit({.kind = Kind::Jump});
        at(bz).b = here();
        std::uint32_t f = compileExpr(*e.operands[2], ops);
        emit({.kind = Kind::Move, .dst = r, .a = f});
        at(j).a = here();
        return r;
      }
      case ExprKind::ZExt:
      case ExprKind::SExt:
      case ExprKind::Trunc:
      case ExprKind::IToF:
      case ExprKind::FToI: {
        std::uint32_t a = compileExpr(*e.operands[0], ops);
        const unsigned w = e.extWidth;
        if (isConst(a)) {
          narrow::Val x = val(a);
          return constant(e.kind == ExprKind::ZExt    ? narrow::zext(x, w)
                          : e.kind == ExprKind::SExt  ? narrow::sext(x, w)
                          : e.kind == ExprKind::Trunc ? narrow::trunc(x, w)
                          : e.kind == ExprKind::IToF  ? narrow::itof(x, w)
                                                      : narrow::ftoi(x, w));
        }
        Kind k = e.kind == ExprKind::ZExt    ? Kind::ZExt
                 : e.kind == ExprKind::SExt  ? Kind::SExt
                 : e.kind == ExprKind::Trunc ? Kind::Trunc
                 : e.kind == ExprKind::IToF  ? Kind::IToF
                                             : Kind::FToI;
        return produce({.kind = k, .hi = std::uint16_t(w), .a = a});
      }
      case ExprKind::Concat: {
        std::uint32_t acc = compileExpr(*e.operands[0], ops);
        for (std::size_t i = 1; i < e.operands.size(); ++i) {
          std::uint32_t lo = compileExpr(*e.operands[i], ops);
          acc = isConst(acc) && isConst(lo)
                    ? constant(narrow::concat(val(acc), val(lo)))
                    : produce({.kind = Kind::Concat2, .a = acc, .b = lo});
        }
        return acc;
      }
      case ExprKind::Carry:
      case ExprKind::Overflow:
      case ExprKind::Borrow: {
        std::uint32_t a = compileExpr(*e.operands[0], ops);
        std::uint32_t b = compileExpr(*e.operands[1], ops);
        if (isConst(a) && isConst(b)) {
          narrow::Val x = val(a), y = val(b);
          return constant(e.kind == ExprKind::Carry      ? narrow::carry(x, y)
                          : e.kind == ExprKind::Overflow ? narrow::overflow(x, y)
                                                         : narrow::borrow(x, y));
        }
        Kind k = e.kind == ExprKind::Carry      ? Kind::Carry
                 : e.kind == ExprKind::Overflow ? Kind::Overflow
                                                : Kind::Borrow;
        return produce({.kind = k, .a = a, .b = b});
      }
    }
    throw EvalError("bad expression kind");
  }

  void compileStmt(const rtl::Stmt& stmt, const Operands& ops) {
    switch (stmt.kind) {
      case rtl::StmtKind::Assign: {
        // Interpreter order: resolve the lvalue (index expressions and
        // option recursion included) before evaluating the value.
        std::uint32_t slot = std::uint32_t(prog_.slots.size()) - rec_.slots;
        prog_.slots.push_back({.latency = latency_, .stallCost = stallCost_});
        compileLvalue(stmt.dest, ops, slot);
        std::uint32_t v = compileExpr(*stmt.value, ops);
        emit({.kind = Kind::StageWrite, .dst = slot, .a = v});
        break;
      }
      case rtl::StmtKind::If: {
        std::uint32_t c = compileExpr(*stmt.cond, ops);
        if (isConst(c)) {
          compileStmts(val(c).v ? stmt.thenStmts : stmt.elseStmts, ops);
          break;
        }
        std::uint32_t bz = emit({.kind = Kind::BranchIfZero, .a = c});
        compileStmts(stmt.thenStmts, ops);
        if (stmt.elseStmts.empty()) {
          at(bz).b = here();
        } else {
          std::uint32_t j = emit({.kind = Kind::Jump});
          at(bz).b = here();
          compileStmts(stmt.elseStmts, ops);
          at(j).a = here();
        }
        break;
      }
    }
  }

  void compileLvalue(const rtl::Lvalue& lv, const Operands& ops,
                     std::uint32_t slot) {
    if (lv.isParam) {
      const NtOption& opt = selected(ops, lv.paramIndex);
      if (!opt.lvalue) {
        trap(cat("non-terminal '",
                 m_.nonTerminals[ops.params[lv.paramIndex].index].name,
                 "' option has no lvalue but was written"));
        return;
      }
      compileLvalue(*opt.lvalue, {opt.params, ops.values[lv.paramIndex].sub},
                    slot);
      return;
    }
    WriteSlot& s = prog_.slots[rec_.slots + slot];
    s.si = lv.storageIndex;
    s.hasSlice = lv.hasSlice;
    s.hi = lv.sliceHi;
    s.lo = lv.sliceLo;
    if (!lv.index) return;
    std::uint32_t idx = compileExpr(*lv.index, ops);
    if (!isConst(idx)) {
      emit({.kind = Kind::SetLv, .dst = slot, .a = lv.storageIndex, .b = idx});
      return;
    }
    const StorageDef& st = m_.storages[lv.storageIndex];
    prog_.slots[rec_.slots + slot].elem = val(idx).v;
    if (val(idx).v >= st.depth)
      trap(cat("write to ", st.name, "[", val(idx).v, "] is out of range"));
  }

  const Machine& m_;
  const bool injectFault_;
  BoundProgram& prog_;
  BoundProgram::Record& rec_;
  std::vector<bool> isConst_;  ///< per record-relative register
  unsigned latency_ = 1, stallCost_ = 0;
};

}  // namespace

bool isNarrow(const Machine& m) {
  NarrowProof proof(m);
  for (const Field& field : m.fields)
    for (const Operation& op : field.operations)
      if (!proof.stmts(op.action, op.params) ||
          !proof.stmts(op.sideEffects, op.params) ||
          !proof.optionSideEffects(op.params))
        return false;
  return true;
}

Binder::Binder(const Machine& machine)
    : machine_(&machine),
      narrow_(isNarrow(machine)),
      injectFault_(testFaultInjection()) {}

BoundProgram Binder::bind(const DecodedProgram& program) const {
  BoundProgram prog;
  prog.byAddress.resize(program.byAddress.size());
  for (std::size_t addr = 0; addr < program.byAddress.size(); ++addr)
    if (program.hasInstructionAt(addr))
      RecordCompiler(*machine_, injectFault_, prog, prog.byAddress[addr])
          .compile(program.byAddress[addr]);
  return prog;
}

std::string toString(const BoundProgram& prog, std::uint64_t address) {
  static constexpr const char* kNames[] = {
      "move",  "read", "readelem", "slice", "unary", "binary", "cat2",
      "zext",  "sext", "trunc",    "itof",  "ftoi",  "carry",  "ovf",
      "borrow", "jump", "brz",     "setlv", "stage", "trap"};
  const BoundProgram::Record& rec = prog.byAddress[address];
  std::string out;
  for (std::uint32_t i = 0; i <= rec.end; ++i) {
    if (i == rec.phaseB) out += "-- phase B\n";
    if (i == rec.end) break;
    const Uop& u = prog.code[rec.code + i];
    out += cat(i, ": ", kNames[std::size_t(u.kind)]);
    switch (u.kind) {
      case Kind::Unary: out += cat(" ", rtl::unOpName(rtl::UnOp(u.op))); break;
      case Kind::Binary:
        out += cat(" ", rtl::binOpName(rtl::BinOp(u.op)));
        break;
      case Kind::Trap: out += cat(" \"", prog.traps[u.a], "\""); break;
      default: break;
    }
    out += cat(" dst=", u.dst, " a=", u.a, " b=", u.b, " hi=", u.hi,
               " lo=", u.lo, "\n");
  }
  return out;
}

}  // namespace isdl::sim::uop

// --- dispatch loop -----------------------------------------------------------

namespace isdl::sim {

/// Executes one phase of the bound record at `address` against the engine's
/// state: phase A is the record's uops [0, phaseB), phase B [phaseB, end).
/// Registers are (masked uint64_t, width) pairs and every operator is the
/// shared narrow ALU's (rtl/narrow_alu.h), so no BitVector is built in the
/// loop except for a write to a storage wider than 64 bits. Storage reads go
/// through readNarrow (the interpreter's pending-write overlay, on words)
/// and staged writes through the same stageWrite, so hazard probing,
/// forwarding, stall attribution, write conflicts, and XTRACE hooks behave
/// identically in both engines.
void ExecEngine::execProgram(uop::BoundProgram& prog, std::uint64_t address,
                             bool phaseB) {
  using uop::Kind;
  const uop::BoundProgram::Record& rec = prog.byAddress[address];
  std::uint32_t pc = phaseB ? rec.phaseB : 0;
  const std::uint32_t end = phaseB ? rec.end : rec.phaseB;
  narrow::Val* regs = prog.regs.data() + rec.regs;
  uop::WriteSlot* slots = prog.slots.data() + rec.slots;
  const uop::Uop* code = prog.code.data() + rec.code;
  while (pc < end) {
    const uop::Uop& u = code[pc];
    switch (u.kind) {
      case Kind::Move: regs[u.dst] = regs[u.a]; ++pc; break;
      case Kind::ReadStorage:
        regs[u.dst] = {readNarrow(u.a, 0), state_.width(u.a)};
        ++pc;
        break;
      case Kind::ReadElem:
        regs[u.dst] = {readNarrow(u.a, regs[u.b].v), state_.width(u.a)};
        ++pc;
        break;
      case Kind::Slice:
        regs[u.dst] = narrow::slice(regs[u.a], u.hi, u.lo);
        ++pc;
        break;
      case Kind::Unary:
        regs[u.dst] = narrow::unOp(rtl::UnOp(u.op), regs[u.a]);
        ++pc;
        break;
      case Kind::Binary:
        regs[u.dst] = narrow::binOp(rtl::BinOp(u.op), regs[u.a], regs[u.b]);
        ++pc;
        break;
      case Kind::Concat2:
        regs[u.dst] = narrow::concat(regs[u.a], regs[u.b]);
        ++pc;
        break;
      case Kind::ZExt: regs[u.dst] = narrow::zext(regs[u.a], u.hi); ++pc; break;
      case Kind::SExt: regs[u.dst] = narrow::sext(regs[u.a], u.hi); ++pc; break;
      case Kind::Trunc:
        regs[u.dst] = narrow::trunc(regs[u.a], u.hi);
        ++pc;
        break;
      case Kind::IToF: regs[u.dst] = narrow::itof(regs[u.a], u.hi); ++pc; break;
      case Kind::FToI: regs[u.dst] = narrow::ftoi(regs[u.a], u.hi); ++pc; break;
      case Kind::Carry:
        regs[u.dst] = narrow::carry(regs[u.a], regs[u.b]);
        ++pc;
        break;
      case Kind::Overflow:
        regs[u.dst] = narrow::overflow(regs[u.a], regs[u.b]);
        ++pc;
        break;
      case Kind::Borrow:
        regs[u.dst] = narrow::borrow(regs[u.a], regs[u.b]);
        ++pc;
        break;
      case Kind::Jump: pc = u.a; break;
      case Kind::BranchIfZero: pc = regs[u.a].v == 0 ? u.b : pc + 1; break;
      case Kind::SetLv: {
        uop::WriteSlot& s = slots[u.dst];
        s.elem = regs[u.b].v;
        if (s.elem >= state_.depth(u.a))
          throw rtl::EvalError(cat("write to ", machine_.storages[u.a].name,
                                   "[", s.elem, "] is out of range"));
        ++pc;
        break;
      }
      case Kind::StageWrite: {
        const uop::WriteSlot& s = slots[u.dst];
        const narrow::Val v = regs[u.a];
        if (state_.width(s.si) <= 64) {
          stageWrite(s, v.v, nullptr);
        } else {
          BitVector wide(v.w, v.v);
          stageWrite(s, 0, &wide);
        }
        ++pc;
        break;
      }
      case Kind::Trap: throw rtl::EvalError(prog.traps[u.a]);
    }
  }
}

}  // namespace isdl::sim
