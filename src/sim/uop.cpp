// The binder, the narrow-width proof, the bound records' dispatch loop and
// their C++ printer. The binder mirrors the interpreter's evaluation order
// exactly (sim/core.cpp: evalExpr, resolveLvalue-before-value, depth-first
// option side effects), so the two engines agree on every observable: final
// state, cycle counts, stall attribution, heatmap read counts, and which trap
// fires first.

#include "sim/uop.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>

#include "rtl/eval.h"
#include "sim/core.h"
#include "support/compiler.h"
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

/// The width proof behind Binder::narrow: walks every tree an operation can
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
  const DecodedParam* values;
};

/// Uops and registers the binder's arenas are reserved for per decoded
/// parameter (the operands are what a record binds): about their mean on
/// generated machines (3.9 and 5.3, and 0.43 write slots), and about twice
/// it on the bundled kernels. The arenas live as long as the program, so
/// the reserve stays near what is used.
constexpr std::size_t kUopsPerParam = 4, kRegsPerParam = 5;

std::string writeOutOfRange(const Machine& m, unsigned si,
                            std::uint64_t elem) {
  return cat("write to ", m.storages[si].name, "[", elem,
             "] is out of range");
}

/// The text of trap uop `u`; `regs` are its record's registers.
std::string trapMessage(const Machine& m, const Uop& u,
                        const narrow::Val* regs) {
  switch (TrapKind(u.op)) {
    case TrapKind::NoValue:
      return cat("non-terminal '", m.nonTerminals[u.a].name,
                 "' option has no value but was read");
    case TrapKind::NoLvalue:
      return cat("non-terminal '", m.nonTerminals[u.a].name,
                 "' option has no lvalue but was written");
    case TrapKind::WriteOutOfRange: break;
  }
  return writeOutOfRange(m, u.a, regs[u.b].v);
}

/// The control structure of the record whose code is [code, code + end):
/// which uops run on some paths only, which registers some uop writes (the
/// others are constants the binder preloaded), and which write slots a
/// SetLv indexes at run time.
struct RecordShape {
  RecordShape(const Uop* code, std::uint32_t end)
      : nesting(end + 1, 0), isTarget(end + 1, false) {
    for (std::uint32_t i = 0; i < end; ++i) {
      const Uop& u = code[i];
      if (u.kind < Kind::Jump) written.push_back(u.dst);  // value producers
      if (u.kind == Kind::SetLv) elemReg[u.dst] = u.b;
      if (u.kind == Kind::Jump || u.kind == Kind::BranchIfZero) {
        const std::uint32_t target = u.kind == Kind::Jump ? u.a : u.b;
        isTarget[target] = true;
        ++nesting[i + 1];
        --nesting[target];
      }
    }
    std::partial_sum(nesting.begin(), nesting.end(), nesting.begin());
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());
  }

  /// Whether uop `i` sits strictly between a jump or branch and its target
  /// (jumps only go forward). The binder folds constant conditions, so such
  /// a uop runs or not depending on run-time data.
  bool conditional(std::uint32_t i) const { return nesting[i] > 0; }
  bool isWritten(std::uint32_t r) const {
    return std::binary_search(written.begin(), written.end(), r);
  }

  std::vector<std::uint32_t> written;  ///< sorted
  std::vector<int> nesting;
  std::vector<bool> isTarget;
  std::map<std::uint32_t, std::uint32_t> elemReg;  ///< write slot -> register
};

/// Lowers the decoded instructions of one program into their records, one
/// at a time. Registers are numbered per record and never reused, so every
/// register has one producer on any path; constants (operand values and
/// folded results) are registers whose value is set here.
class RecordCompiler {
 public:
  RecordCompiler(const Machine& m, bool injectFault,
                 const DecodedProgram& program, BoundProgram& prog)
      : m_(m), injectFault_(injectFault), program_(program), prog_(prog) {}

  void compile(const DecodedInstruction& inst, BoundProgram::Record& rec) {
    rec_ = &rec;
    rec.code = std::uint32_t(prog_.code.size());
    rec.regs = std::uint32_t(prog_.regs.size());
    rec.slots = std::uint32_t(prog_.slots.size());
    // Phase A: every field's action; phase B: every field's side effects,
    // then those of its selected options, depth-first.
    const DecodedOp* ops = program_.opsOf(inst);
    const std::size_t numFields = m_.fields.size();
    for (std::size_t f = 0; f < numFields; ++f) {
      const Operation& op = m_.fields[f].operations[ops[f].opIndex];
      setTiming(ops[f]);
      compileStmts(op.action, {op.params, program_.paramsOf(ops[f])});
    }
    rec.phaseB = here();
    for (std::size_t f = 0; f < numFields; ++f) {
      const Operation& op = m_.fields[f].operations[ops[f].opIndex];
      const Operands operands{op.params, program_.paramsOf(ops[f])};
      setTiming(ops[f]);
      compileStmts(op.sideEffects, operands);
      compileOptionSideEffects(operands);
    }
    rec.end = here();
  }

 private:
  void setTiming(const DecodedOp& dop) {
    latency_ = dop.effLatency;
    stallCost_ = dop.effStall;
  }

  std::uint32_t here() const {
    return std::uint32_t(prog_.code.size()) - rec_->code;
  }
  std::uint32_t emit(Uop u) {
    prog_.code.push_back(u);
    return here() - 1;
  }
  Uop& at(std::uint32_t pc) { return prog_.code[rec_->code + pc]; }

  /// A register of the record being compiled, and whether its value is a
  /// constant the binder set.
  struct Reg {
    std::uint32_t index;
    bool constant;
  };

  std::uint32_t newReg(narrow::Val v = {}) {
    prog_.regs.push_back(v);
    return std::uint32_t(prog_.regs.size()) - rec_->regs - 1;
  }
  Reg constant(narrow::Val v) { return {newReg(v), true}; }
  Reg constant(const BitVector& v) {
    return constant(narrow::Val{v.toUint64(), v.width()});
  }
  narrow::Val val(Reg r) const { return prog_.regs[rec_->regs + r.index]; }
  /// Emits value uop `u` into a fresh register.
  Reg produce(Uop u) {
    u.dst = newReg();
    emit(u);
    return {u.dst, false};
  }
  void trap(TrapKind kind, std::uint32_t subject, std::uint32_t elem = 0) {
    emit({.kind = Kind::Trap, .op = std::uint8_t(kind), .a = subject,
          .b = elem});
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
      const Operands sub{opt.params, program_.subOf(ops.values[i])};
      compileStmts(opt.sideEffects, sub);
      compileOptionSideEffects(sub);
    }
  }

  Reg compileExpr(const rtl::Expr& e, const Operands& ops) {
    using rtl::ExprKind;
    switch (e.kind) {
      case ExprKind::Const: return constant(e.constant);
      case ExprKind::Param: {
        const DecodedParam& dp = ops.values[e.paramIndex];
        if (ops.params[e.paramIndex].kind == ParamKind::Token)
          return constant(dp.encoded);
        const NtOption& opt = selected(ops, e.paramIndex);
        if (!opt.value) {
          trap(TrapKind::NoValue, ops.params[e.paramIndex].index);
          return {newReg(), false};  // never read: the trap ends the issue
        }
        return compileExpr(*opt.value, {opt.params, program_.subOf(dp)});
      }
      case ExprKind::Read:
        return produce({.kind = Kind::ReadStorage,
                        .hi = std::uint16_t(e.width),
                        .dynamic = branches_ > 0,
                        .a = e.storageIndex});
      case ExprKind::ReadElem: {
        const Reg idx = compileExpr(*e.operands[0], ops);
        return produce({.kind = Kind::ReadElem,
                        .hi = std::uint16_t(e.width),
                        .dynamic = !idx.constant || branches_ > 0,
                        .a = e.storageIndex,
                        .b = idx.index});
      }
      case ExprKind::Slice: {
        const Reg a = compileExpr(*e.operands[0], ops);
        if (a.constant)
          return constant(narrow::slice(val(a), e.sliceHi, e.sliceLo));
        return produce({.kind = Kind::Slice,
                        .hi = std::uint16_t(e.sliceHi),
                        .lo = std::uint16_t(e.sliceLo),
                        .a = a.index});
      }
      case ExprKind::Unary: {
        const Reg a = compileExpr(*e.operands[0], ops);
        if (a.constant) return constant(narrow::unOp(e.unOp, val(a)));
        return produce(
            {.kind = Kind::Unary, .op = std::uint8_t(e.unOp), .a = a.index});
      }
      case ExprKind::Binary: {
        const Reg a = compileExpr(*e.operands[0], ops);
        const Reg b = compileExpr(*e.operands[1], ops);
        rtl::BinOp op = e.binOp;
        if (op == rtl::BinOp::Add && injectFault_)
          op = rtl::BinOp::Sub;  // deliberate mis-lowering (see uop.h)
        if (a.constant && b.constant)
          return constant(narrow::binOp(op, val(a), val(b)));
        return produce({.kind = Kind::Binary,
                        .op = std::uint8_t(op),
                        .a = a.index,
                        .b = b.index});
      }
      case ExprKind::Ternary: {
        // Lazy branches, like the interpreter: the untaken side must not
        // evaluate (its reads and traps must not happen).
        const Reg c = compileExpr(*e.operands[0], ops);
        if (c.constant)
          return compileExpr(*e.operands[val(c).v ? 1 : 2], ops);
        const std::uint32_t r = newReg();
        const std::uint32_t bz =
            emit({.kind = Kind::BranchIfZero, .a = c.index});
        ++branches_;
        const Reg t = compileExpr(*e.operands[1], ops);
        emit({.kind = Kind::Move, .dst = r, .a = t.index});
        const std::uint32_t j = emit({.kind = Kind::Jump});
        at(bz).b = here();
        const Reg f = compileExpr(*e.operands[2], ops);
        emit({.kind = Kind::Move, .dst = r, .a = f.index});
        --branches_;
        at(j).a = here();
        return {r, false};
      }
      case ExprKind::ZExt:
      case ExprKind::SExt:
      case ExprKind::Trunc:
      case ExprKind::IToF:
      case ExprKind::FToI: {
        const Reg a = compileExpr(*e.operands[0], ops);
        const unsigned w = e.extWidth;
        if (a.constant) {
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
        return produce({.kind = k, .hi = std::uint16_t(w), .a = a.index});
      }
      case ExprKind::Concat: {
        Reg acc = compileExpr(*e.operands[0], ops);
        for (std::size_t i = 1; i < e.operands.size(); ++i) {
          const Reg lo = compileExpr(*e.operands[i], ops);
          acc = acc.constant && lo.constant
                    ? constant(narrow::concat(val(acc), val(lo)))
                    : produce({.kind = Kind::Concat2,
                               .a = acc.index,
                               .b = lo.index});
        }
        return acc;
      }
      case ExprKind::Carry:
      case ExprKind::Overflow:
      case ExprKind::Borrow: {
        const Reg a = compileExpr(*e.operands[0], ops);
        const Reg b = compileExpr(*e.operands[1], ops);
        if (a.constant && b.constant) {
          narrow::Val x = val(a), y = val(b);
          return constant(e.kind == ExprKind::Carry      ? narrow::carry(x, y)
                          : e.kind == ExprKind::Overflow ? narrow::overflow(x, y)
                                                         : narrow::borrow(x, y));
        }
        Kind k = e.kind == ExprKind::Carry      ? Kind::Carry
                 : e.kind == ExprKind::Overflow ? Kind::Overflow
                                                : Kind::Borrow;
        return produce({.kind = k, .a = a.index, .b = b.index});
      }
    }
    throw EvalError("bad expression kind");
  }

  void compileStmt(const rtl::Stmt& stmt, const Operands& ops) {
    switch (stmt.kind) {
      case rtl::StmtKind::Assign: {
        // Interpreter order: resolve the lvalue (index expressions and
        // option recursion included) before evaluating the value.
        std::uint32_t slot = std::uint32_t(prog_.slots.size()) - rec_->slots;
        prog_.slots.push_back({.latency = latency_, .stallCost = stallCost_});
        compileLvalue(stmt.dest, ops, slot);
        const Reg v = compileExpr(*stmt.value, ops);
        emit({.kind = Kind::StageWrite, .dst = slot, .a = v.index});
        break;
      }
      case rtl::StmtKind::If: {
        const Reg c = compileExpr(*stmt.cond, ops);
        if (c.constant) {
          compileStmts(val(c).v ? stmt.thenStmts : stmt.elseStmts, ops);
          break;
        }
        const std::uint32_t bz =
            emit({.kind = Kind::BranchIfZero, .a = c.index});
        ++branches_;
        compileStmts(stmt.thenStmts, ops);
        if (stmt.elseStmts.empty()) {
          at(bz).b = here();
        } else {
          std::uint32_t j = emit({.kind = Kind::Jump});
          at(bz).b = here();
          compileStmts(stmt.elseStmts, ops);
          at(j).a = here();
        }
        --branches_;
        break;
      }
    }
  }

  void compileLvalue(const rtl::Lvalue& lv, const Operands& ops,
                     std::uint32_t slot) {
    if (lv.isParam) {
      const NtOption& opt = selected(ops, lv.paramIndex);
      if (!opt.lvalue) {
        trap(TrapKind::NoLvalue, ops.params[lv.paramIndex].index);
        return;
      }
      compileLvalue(*opt.lvalue,
                    {opt.params, program_.subOf(ops.values[lv.paramIndex])},
                    slot);
      return;
    }
    WriteSlot& s = prog_.slots[rec_->slots + slot];
    s.si = lv.storageIndex;
    s.hasSlice = lv.hasSlice;
    s.hi = lv.sliceHi;
    s.lo = lv.sliceLo;
    if (!lv.index) return;
    const Reg idx = compileExpr(*lv.index, ops);
    if (!idx.constant) {
      emit({.kind = Kind::SetLv,
            .dst = slot,
            .a = lv.storageIndex,
            .b = idx.index});
      return;
    }
    prog_.slots[rec_->slots + slot].elem = val(idx).v;
    if (val(idx).v >= m_.storages[lv.storageIndex].depth)
      trap(TrapKind::WriteOutOfRange, lv.storageIndex, idx.index);
  }

  const Machine& m_;
  const bool injectFault_;
  const DecodedProgram& program_;
  BoundProgram& prog_;
  BoundProgram::Record* rec_ = nullptr;  ///< the record being compiled
  unsigned latency_ = 1, stallCost_ = 0;
  /// Data-dependent branches around the uop being emitted.
  unsigned branches_ = 0;
};

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

}  // namespace

Binder::Binder(const Machine& machine)
    : machine_(&machine),
      narrow_(isNarrow(machine)),
      injectFault_(testFaultInjection()) {}

void Binder::bind(const DecodedProgram& program, BoundProgram& into) const {
  into.byAddress.assign(program.byAddress.size(), {});
  into.code.clear();
  into.regs.clear();
  into.slots.clear();
  const std::size_t params = program.params.size();
  into.code.reserve(kUopsPerParam * params);
  into.regs.reserve(kRegsPerParam * params);
  into.slots.reserve(params / 2);
  RecordCompiler compiler(*machine_, injectFault_, program, into);
  for (std::size_t addr = 0; addr < program.byAddress.size(); ++addr)
    if (program.hasInstructionAt(addr))
      compiler.compile(program.byAddress[addr], into.byAddress[addr]);
}

std::string Binder::printCpp(const BoundProgram& prog,
                             std::uint64_t address) const {
  // The narrow ALU function of each value kind up to Borrow.
  static constexpr const char* kCalls[] = {
      "",     "",      "",     "slice", "unOp",  "binOp",    "concat", "zext",
      "sext", "trunc", "itof", "ftoi",  "carry", "overflow", "borrow"};
  const BoundProgram::Record& rec = prog.byAddress[address];
  const Uop* code = prog.code.data() + rec.code;

  // Registers some uop writes are declared; the others are constants the
  // binder preloaded, printed as literals. A conditional uop's staged write
  // commits under a flag. A write whose element a SetLv computes indexes
  // with that SetLv's register, which nothing writes again.
  const RecordShape shape(code, rec.end);
  const std::vector<std::uint32_t>& written = shape.written;
  const auto& elemReg = shape.elemReg;
  auto isWritten = [&](std::uint32_t r) { return shape.isWritten(r); };
  auto word = [&](std::uint32_t r) {
    return isWritten(r) ? cat("r", r, ".v")
                        : cat(prog.regs[rec.regs + r].v, "u");
  };
  auto val = [&](std::uint32_t r) {
    return isWritten(r) ? cat("r", r)
                        : cat("Val{", word(r), ", ", prog.regs[rec.regs + r].w,
                              "}");
  };
  auto label = [&](std::uint32_t i) { return cat("L", address, "_", i); };
  // Trap messages are built from ISDL identifiers and numbers, so they need
  // no escaping.
  auto trap = [](const std::string& format, const std::string& arg = "") {
    return cat("{ std::printf(\"trap: ", format, "\\n\"", arg,
               "); return 2; }\n");
  };
  // The engine's range check on element `r` of storage `si`.
  auto rangeCheck = [&](std::uint32_t r, unsigned si, const char* verb) {
    const StorageDef& st = machine_->storages[si];
    const std::string what = cat(verb, " ", st.name, "[");
    if (isWritten(r))
      return cat("if (r", r, ".v >= ", st.depth, "u) ",
                 trap(what + "%llu] is out of range",
                      cat(", (unsigned long long)r", r, ".v")));
    const std::uint64_t e = prog.regs[rec.regs + r].v;
    return e < st.depth ? "" : trap(cat(what, e, "] is out of range"));
  };

  std::string decls, body, commits;
  for (std::uint32_t r : written)
    decls += cat(r == written[0] ? "Val r" : ", r", r);
  if (!written.empty()) decls += ";\n";
  for (std::uint32_t i = 0; i <= rec.end; ++i) {
    if (i == rec.phaseB && rec.phaseB < rec.end) body += "// phase B\n";
    if (shape.isTarget[i]) body += cat(label(i), ":;\n");
    if (i == rec.end) break;
    const Uop& u = code[i];
    const std::string assign = cat("r", u.dst, " = ");
    switch (u.kind) {
      case Kind::Move: body += cat(assign, val(u.a), ";\n"); break;
      case Kind::ReadStorage:
        body += cat(assign, "Val{s", u.a, "[0], ",
                    machine_->storages[u.a].width, "};\n");
        break;
      case Kind::ReadElem:
        body += cat(rangeCheck(u.b, u.a, "access to"), assign, "Val{s", u.a,
                    "[", word(u.b), "], ", machine_->storages[u.a].width,
                    "};\n");
        break;
      case Kind::Slice:
        body += cat(assign, "slice(", val(u.a), ", ", u.hi, ", ", u.lo,
                    ");\n");
        break;
      case Kind::Unary:
        body += cat(assign, "unOp(UnOp(", int(u.op), "), ", val(u.a), ");\n");
        break;
      case Kind::Binary:
        body += cat(assign, "binOp(BinOp(", int(u.op), "), ", val(u.a), ", ",
                    val(u.b), ");\n");
        break;
      case Kind::ZExt:
      case Kind::SExt:
      case Kind::Trunc:
      case Kind::IToF:
      case Kind::FToI:
        body += cat(assign, kCalls[int(u.kind)], "(", val(u.a), ", ", u.hi,
                    ");\n");
        break;
      case Kind::Concat2:
      case Kind::Carry:
      case Kind::Overflow:
      case Kind::Borrow:
        body += cat(assign, kCalls[int(u.kind)], "(", val(u.a), ", ",
                    val(u.b), ");\n");
        break;
      case Kind::Jump: body += cat("goto ", label(u.a), ";\n"); break;
      case Kind::BranchIfZero:
        body += cat("if (", word(u.a), " == 0) goto ", label(u.b), ";\n");
        break;
      case Kind::SetLv: body += rangeCheck(u.b, u.a, "write to"); break;
      case Kind::StageWrite: {
        const WriteSlot& s = prog.slots[rec.slots + u.dst];
        const auto dynamic = elemReg.find(u.dst);
        const std::string target = cat(
            "s", s.si, "[",
            dynamic == elemReg.end() ? cat(s.elem, "u") : word(dynamic->second),
            "]");
        std::string write =
            s.hasSlice ? cat(target, " = withSlice(", target, ", ", s.hi,
                             ", ", s.lo, ", ", word(u.a), ");")
                       : cat(target, " = ", word(u.a), ";");
        if (int(s.si) == machine_->pcIndex) write += " pcWritten = true;";
        if (shape.conditional(i)) {
          decls += cat("bool st", u.dst, " = false;\n");
          body += cat("st", u.dst, " = true;\n");
          write = cat("if (st", u.dst, ") { ", write, " }");
        }
        commits += write + "\n";
        break;
      }
      case Kind::Trap:
        body += trap(trapMessage(*machine_, u, prog.regs.data() + rec.regs));
        break;
    }
  }
  return decls + body + commits;
}

bool Binder::buildBlock(const DecodedProgram& program, const BoundProgram& prog,
                        std::uint64_t address, Block& out) const {
  // One read or write of a storage element; `pinned` when the element is
  // known at bind time, `conditional` when a data-dependent RTL branch
  // decides whether it happens. Without a pinned element on both sides, two
  // accesses of one storage may overlap.
  struct Access {
    unsigned si;
    std::uint64_t elem;
    bool pinned;
    bool conditional;
    bool overlaps(const Access& o) const {
      return si == o.si && (!pinned || !o.pinned || elem == o.elem);
    }
  };
  struct InFlight : Access {
    unsigned stallCost;
    std::uint64_t commit;  ///< retires at the end of this cycle
  };
  // A read the schedule counts: every one but a Uop::dynamic read.
  struct Counted {
    unsigned si;
    std::uint64_t elem;
    bool phaseA;
  };
  const unsigned pcIndex = unsigned(machine_->pcIndex);
  const std::uint64_t pcMask =
      narrow::maskOf(machine_->storages[pcIndex].width);
  std::vector<InFlight> inFlight;
  std::vector<Access> reads;
  std::vector<Counted> counted;
  std::vector<std::pair<Access, const WriteSlot*>> writes;
  std::uint64_t cycle = 0, busyUntil = 0;
  unsigned busyField = 0;
  out = Block{};
  for (std::uint64_t addr = address;;) {
    const DecodedInstruction& inst = program.byAddress[addr];
    const BoundProgram::Record& rec = prog.byAddress[addr];
    const Uop* code = prog.code.data() + rec.code;
    const narrow::Val* regs = prog.regs.data() + rec.regs;
    const WriteSlot* slots = prog.slots.data() + rec.slots;
    const RecordShape shape(code, rec.end);
    const bool leader = addr == address;

    // The phase-A reads, and the writes of both phases in staging order
    // (jumps go forward, so execution order is code order).
    reads.clear();
    counted.clear();
    writes.clear();
    // Whether phase A computes an element or a branch from data.
    bool writesPc = false, dataDependentA = false;
    for (std::uint32_t i = 0; i < rec.end; ++i) {
      const Uop& u = code[i];
      if (u.kind == Kind::ReadStorage || u.kind == Kind::ReadElem) {
        if (u.a == pcIndex && !leader) return false;
        const bool pinned =
            u.kind == Kind::ReadStorage || !shape.isWritten(u.b);
        if (i < rec.phaseB)
          reads.push_back({u.a, u.kind == Kind::ReadElem && pinned
                                    ? regs[u.b].v
                                    : 0,
                           pinned, shape.conditional(i)});
        if (u.dynamic)
          dataDependentA = dataDependentA || i < rec.phaseB;
        else
          counted.push_back(
              {u.a, u.kind == Kind::ReadElem ? regs[u.b].v : 0,
               i < rec.phaseB});
      } else if (u.kind == Kind::SetLv || u.kind == Kind::BranchIfZero) {
        dataDependentA = dataDependentA || i < rec.phaseB;
      } else if (u.kind == Kind::StageWrite) {
        const WriteSlot& s = slots[u.dst];
        if (machine_->storages[s.si].width > 64) return false;
        if (s.si == pcIndex) {
          if (s.hasSlice && !leader) return false;
          writesPc = true;
        }
        writes.push_back({{s.si, s.elem, !shape.elemReg.count(u.dst),
                           shape.conditional(i)},
                          &s});
      }
    }

    // ExecEngine::issue's schedule: a structural stall, then interlock
    // retries of phase A, then the writes of both phases go in flight.
    if (busyUntil > cycle) {
      out.structStalls.push_back({busyField, busyUntil - cycle});
      cycle = busyUntil;
    }
    std::uint64_t passes = 1;  // of phase A
    for (;; ++passes) {
      std::uint64_t stall = 0;
      unsigned producer = 0;
      for (const Access& r : reads)
        for (const InFlight& w : inFlight) {
          if (w.stallCost == 0 || w.commit < cycle || !w.overlaps(r))
            continue;
          if (!r.pinned || !w.pinned || r.conditional || w.conditional)
            return false;
          if (w.commit + 1 - cycle > stall) {
            stall = w.commit + 1 - cycle;
            producer = w.si;
          }
        }
      if (stall == 0) break;
      out.dataStalls.push_back({producer, stall});
      cycle += stall;
    }
    if (passes > 1 && dataDependentA) return false;
    for (const Counted& c : counted)
      out.reads.push_back({c.si, c.elem, c.phaseA ? passes : 1});
    std::erase_if(inFlight, [&](const InFlight& w) { return w.commit < cycle; });
    for (const auto& [w, s] : writes) {
      const std::uint64_t commit = cycle + s->latency - 1;
      for (const InFlight& e : inFlight)
        if (e.commit > commit && e.overlaps(w)) return false;
      inFlight.push_back({w, s->stallCost, commit});
    }
    busyUntil = cycle + inst.usage;
    busyField = inst.usageField;
    cycle += inst.cycles;
    out.addresses.push_back(addr);

    const std::uint64_t next = addr + inst.sizeWords;
    if (writesPc || inst.halts || !program.hasInstructionAt(next) ||
        next > pcMask) {
      for (const InFlight& w : inFlight)
        if (w.commit >= cycle) return false;  // retires after the block
      out.cycles = cycle;
      out.busyUntil = busyUntil;
      out.busyField = busyField;
      out.next = next;
      out.halts = inst.halts;
      return true;
    }
    addr = next;
  }
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
/// identically in both engines. With `kBlockProfile` (runBlock under a
/// profile) nothing is in flight and the block's schedule counts the reads,
/// so a read goes straight to the state and only a dynamic one is logged.
///
/// The loop starts on a 64-byte boundary (ISDL_HOT_ALIGN). Left to the
/// linker, its placement moved with the code around it, and so did the `sim`
/// op set's cost per issue, by about 4 % (26.1 against 27.1 ns over the 12
/// bundled programs, best of 7 rounds, on a 4-vCPU shared x86-64 host).
template <bool kBlockProfile>
ISDL_HOT_ALIGN void ExecEngine::execProgram(
    uop::BoundProgram& prog, std::uint64_t address, bool phaseB) {
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
        regs[u.dst] = {readUop<kBlockProfile>(u, 0), u.hi};
        ++pc;
        break;
      case Kind::ReadElem:
        regs[u.dst] = {readUop<kBlockProfile>(u, regs[u.b].v), u.hi};
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
          throw rtl::EvalError(uop::writeOutOfRange(machine_, u.a, s.elem));
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
      case Kind::Trap:
        throw rtl::EvalError(uop::trapMessage(machine_, u, regs));
    }
  }
}

template void ExecEngine::execProgram<false>(uop::BoundProgram&,
                                             std::uint64_t, bool);
template void ExecEngine::execProgram<true>(uop::BoundProgram&, std::uint64_t,
                                            bool);

}  // namespace isdl::sim
