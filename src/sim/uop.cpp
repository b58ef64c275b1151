// Micro-op compiler and dispatch loop. The compiler mirrors the
// interpreter's evaluation order exactly (sim/core.cpp: evalExpr,
// resolveLvalue-before-value, depth-first option side effects), so the two
// engines agree on every observable: final state, cycle counts, stall
// attribution, heatmap read counts, and which trap fires first.

#include "sim/uop.h"

#include <atomic>
#include <cassert>
#include <unordered_map>

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

/// During compilation constants are referenced as kConstTag | poolIndex;
/// a rewrite pass (UopTable ctor) renumbers everything once the shared pool
/// size is final: pool entries occupy registers [0, poolSize), locals follow.
constexpr std::uint32_t kConstTag = 0x80000000u;

/// Shared, deduplicated constant pool for every program of one UopTable.
/// The engine preloads it into the persistent scratch register file, so a
/// constant costs nothing at dispatch time — there is no "load const" uop.
struct ConstPool {
  std::unordered_map<BitVector, std::uint32_t> index;
  std::vector<BitVector> values;

  std::uint32_t ref(const BitVector& v) {
    auto [it, inserted] = index.try_emplace(v, std::uint32_t(values.size()));
    if (inserted) values.push_back(v);
    return kConstTag | it->second;
  }
};

/// Lowers one operation's statement lists into a Program. One compiler
/// instance per Program; register and lvalue-slot numbering is monotonic
/// (programs are small, reuse is not worth the bookkeeping).
class Compiler {
 public:
  Compiler(const Machine& m, const std::vector<bool>& ntHasSideEffects,
           ConstPool& pool, bool& narrow, Program& p)
      : m_(m),
        ntHasSideEffects_(ntHasSideEffects),
        pool_(pool),
        narrow_(narrow),
        p_(p) {}

  void compileStmts(const std::vector<rtl::StmtPtr>& stmts,
                    const std::vector<Param>& params) {
    for (const auto& stmt : stmts) compileStmt(*stmt, params);
  }

  /// Side effects contributed by selected non-terminal options, depth-first
  /// in parameter order — the interpreter's execOptionSideEffects.
  void compileOptionSideEffects(const std::vector<Param>& params) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Param& p = params[i];
      if (p.kind != ParamKind::NonTerminal) continue;
      if (!ntHasSideEffects_[p.index]) continue;  // prune effect-free operands
      const NonTerminal& nt = m_.nonTerminals[p.index];
      forEachOption(nt, std::uint32_t(i), [&](const NtOption& opt) {
        emit({.kind = Kind::PushFrame, .a = std::uint32_t(i)});
        compileStmts(opt.sideEffects, opt.params);
        compileOptionSideEffects(opt.params);
        emit({.kind = Kind::PopFrame});
        return true;  // fall through to the common join
      });
    }
  }

 private:
  std::uint32_t newReg() { return p_.numRegs++; }

  std::uint32_t emit(Uop u) {
    p_.code.push_back(u);
    return std::uint32_t(p_.code.size() - 1);
  }

  std::uint32_t here() const { return std::uint32_t(p_.code.size()); }

  std::uint32_t addTrap(std::string msg) {
    p_.traps.push_back(std::move(msg));
    return std::uint32_t(p_.traps.size() - 1);
  }

  /// Emits a BrOption over `nt`'s options for parameter `paramIndex`. `body`
  /// compiles one option's code; returning false means the branch ends in a
  /// trap and needs no jump to the join point. All non-trapping branches are
  /// patched to converge immediately after the last one.
  template <typename Body>
  void forEachOption(const NonTerminal& nt, std::uint32_t paramIndex,
                     Body&& body) {
    std::uint32_t tbl = std::uint32_t(p_.tables.size());
    p_.tables.emplace_back(nt.options.size(), 0);
    emit({.kind = Kind::BrOption, .a = paramIndex, .b = tbl});
    std::vector<std::uint32_t> joins;
    for (std::size_t o = 0; o < nt.options.size(); ++o) {
      p_.tables[tbl][o] = here();
      if (body(nt.options[o]))
        joins.push_back(emit({.kind = Kind::Jump}));
    }
    for (std::uint32_t j : joins) p_.code[j].a = here();
  }

  std::uint32_t compileExpr(const rtl::Expr& e,
                            const std::vector<Param>& params) {
    using rtl::ExprKind;
    // Sema's width bounds every value this node computes, the partial
    // concatenations of a Concat included.
    if (e.width > 64) narrow_ = false;
    switch (e.kind) {
      case ExprKind::Const:
        // No uop at all: the constant lives in a preloaded pool register.
        return pool_.ref(e.constant);
      case ExprKind::Param: {
        const Param& p = params[e.paramIndex];
        std::uint32_t r = newReg();
        if (p.kind == ParamKind::Token) {
          emit({.kind = Kind::LoadParam, .dst = r, .a = e.paramIndex});
          return r;
        }
        const NonTerminal& nt = m_.nonTerminals[p.index];
        forEachOption(nt, e.paramIndex, [&](const NtOption& opt) {
          if (!opt.value) {
            emit({.kind = Kind::Trap,
                  .a = addTrap(cat("non-terminal '", nt.name,
                                   "' option has no value but was read"))});
            return false;
          }
          emit({.kind = Kind::PushFrame, .a = e.paramIndex});
          std::uint32_t rr = compileExpr(*opt.value, opt.params);
          emit({.kind = Kind::Move, .dst = r, .a = rr});
          emit({.kind = Kind::PopFrame});
          return true;
        });
        return r;
      }
      case ExprKind::Read: {
        std::uint32_t r = newReg();
        emit({.kind = Kind::ReadStorage, .dst = r, .a = e.storageIndex});
        return r;
      }
      case ExprKind::ReadElem: {
        std::uint32_t idx = compileExpr(*e.operands[0], params);
        std::uint32_t r = newReg();
        emit({.kind = Kind::ReadElem, .dst = r, .a = e.storageIndex, .b = idx});
        return r;
      }
      case ExprKind::Slice: {
        std::uint32_t a = compileExpr(*e.operands[0], params);
        std::uint32_t r = newReg();
        emit({.kind = Kind::Slice,
              .hi = std::uint16_t(e.sliceHi),
              .lo = std::uint16_t(e.sliceLo),
              .dst = r,
              .a = a});
        return r;
      }
      case ExprKind::Unary: {
        std::uint32_t a = compileExpr(*e.operands[0], params);
        std::uint32_t r = newReg();
        emit({.kind = Kind::Unary,
              .op = std::uint8_t(e.unOp),
              .dst = r,
              .a = a});
        return r;
      }
      case ExprKind::Binary: {
        std::uint32_t a = compileExpr(*e.operands[0], params);
        std::uint32_t b = compileExpr(*e.operands[1], params);
        std::uint32_t r = newReg();
        rtl::BinOp op = e.binOp;
        if (op == rtl::BinOp::Add && testFaultInjection())
          op = rtl::BinOp::Sub;  // deliberate mis-lowering (see uop.h)
        emit({.kind = Kind::Binary,
              .op = std::uint8_t(op),
              .dst = r,
              .a = a,
              .b = b});
        return r;
      }
      case ExprKind::Ternary: {
        // Lazy branches, like the interpreter: the untaken side must not
        // evaluate (its reads and traps must not happen).
        std::uint32_t c = compileExpr(*e.operands[0], params);
        std::uint32_t r = newReg();
        std::uint32_t bz = emit({.kind = Kind::BranchIfZero, .a = c});
        std::uint32_t t = compileExpr(*e.operands[1], params);
        emit({.kind = Kind::Move, .dst = r, .a = t});
        std::uint32_t j = emit({.kind = Kind::Jump});
        p_.code[bz].b = here();
        std::uint32_t f = compileExpr(*e.operands[2], params);
        emit({.kind = Kind::Move, .dst = r, .a = f});
        p_.code[j].a = here();
        return r;
      }
      case ExprKind::ZExt:
      case ExprKind::SExt:
      case ExprKind::Trunc:
      case ExprKind::IToF:
      case ExprKind::FToI: {
        Kind k = e.kind == ExprKind::ZExt    ? Kind::ZExt
                 : e.kind == ExprKind::SExt  ? Kind::SExt
                 : e.kind == ExprKind::Trunc ? Kind::Trunc
                 : e.kind == ExprKind::IToF  ? Kind::IToF
                                             : Kind::FToI;
        std::uint32_t a = compileExpr(*e.operands[0], params);
        std::uint32_t r = newReg();
        emit({.kind = k, .hi = std::uint16_t(e.extWidth), .dst = r, .a = a});
        return r;
      }
      case ExprKind::Concat: {
        std::uint32_t acc = compileExpr(*e.operands[0], params);
        for (std::size_t i = 1; i < e.operands.size(); ++i) {
          std::uint32_t lo = compileExpr(*e.operands[i], params);
          std::uint32_t r = newReg();
          emit({.kind = Kind::Concat2, .dst = r, .a = acc, .b = lo});
          acc = r;
        }
        return acc;
      }
      case ExprKind::Carry:
      case ExprKind::Overflow:
      case ExprKind::Borrow: {
        Kind k = e.kind == ExprKind::Carry      ? Kind::Carry
                 : e.kind == ExprKind::Overflow ? Kind::Overflow
                                                : Kind::Borrow;
        std::uint32_t a = compileExpr(*e.operands[0], params);
        std::uint32_t b = compileExpr(*e.operands[1], params);
        std::uint32_t r = newReg();
        emit({.kind = k, .dst = r, .a = a, .b = b});
        return r;
      }
    }
    throw EvalError("bad expression kind");
  }

  void compileStmt(const rtl::Stmt& stmt, const std::vector<Param>& params) {
    switch (stmt.kind) {
      case rtl::StmtKind::Assign: {
        // Interpreter order: resolve the lvalue (index expressions and
        // option recursion included) before evaluating the value.
        std::uint32_t slot = p_.numLvSlots++;
        compileLvalue(stmt.dest, params, slot);
        std::uint32_t v = compileExpr(*stmt.value, params);
        emit({.kind = Kind::StageWrite, .dst = slot, .a = v});
        break;
      }
      case rtl::StmtKind::If: {
        std::uint32_t c = compileExpr(*stmt.cond, params);
        std::uint32_t bz = emit({.kind = Kind::BranchIfZero, .a = c});
        compileStmts(stmt.thenStmts, params);
        if (stmt.elseStmts.empty()) {
          p_.code[bz].b = here();
        } else {
          std::uint32_t j = emit({.kind = Kind::Jump});
          p_.code[bz].b = here();
          compileStmts(stmt.elseStmts, params);
          p_.code[j].a = here();
        }
        break;
      }
    }
  }

  void compileLvalue(const rtl::Lvalue& lv, const std::vector<Param>& params,
                     std::uint32_t slot) {
    if (lv.isParam) {
      const Param& p = params[lv.paramIndex];
      const NonTerminal& nt = m_.nonTerminals[p.index];
      forEachOption(nt, lv.paramIndex, [&](const NtOption& opt) {
        if (!opt.lvalue) {
          emit({.kind = Kind::Trap,
                .a = addTrap(cat("non-terminal '", nt.name,
                                 "' option has no lvalue but was written"))});
          return false;
        }
        emit({.kind = Kind::PushFrame, .a = lv.paramIndex});
        compileLvalue(*opt.lvalue, opt.params, slot);
        emit({.kind = Kind::PopFrame});
        return true;
      });
      return;
    }
    std::uint32_t elemReg = kNoReg;
    if (lv.index) elemReg = compileExpr(*lv.index, params);
    emit({.kind = Kind::SetLv,
          .flags = std::uint8_t(lv.hasSlice ? 1 : 0),
          .hi = std::uint16_t(lv.sliceHi),
          .lo = std::uint16_t(lv.sliceLo),
          .dst = slot,
          .a = lv.storageIndex,
          .b = elemReg});
  }

  const Machine& m_;
  const std::vector<bool>& ntHasSideEffects_;
  ConstPool& pool_;
  bool& narrow_;
  Program& p_;
};

/// Applies `fn` to every operand field of `u` that names a register (as
/// opposed to a storage/param/table index, jump target, or lvalue slot).
template <typename Fn>
void forEachRegOperand(Uop& u, Fn&& fn) {
  switch (u.kind) {
    case Kind::Move:
    case Kind::Slice:
    case Kind::Unary:
    case Kind::ZExt:
    case Kind::SExt:
    case Kind::Trunc:
    case Kind::IToF:
    case Kind::FToI:
      fn(u.dst);
      fn(u.a);
      break;
    case Kind::Binary:
    case Kind::Concat2:
    case Kind::Carry:
    case Kind::Overflow:
    case Kind::Borrow:
      fn(u.dst);
      fn(u.a);
      fn(u.b);
      break;
    case Kind::LoadParam:
    case Kind::ReadStorage:
      fn(u.dst);
      break;
    case Kind::ReadElem:
      fn(u.dst);
      fn(u.b);
      break;
    case Kind::BranchIfZero:
      fn(u.a);
      break;
    case Kind::SetLv:
      if (u.b != kNoReg) fn(u.b);  // dst is an lvalue slot, a is a storage
      break;
    case Kind::StageWrite:
      fn(u.a);  // dst is an lvalue slot
      break;
    case Kind::Jump:
    case Kind::BrOption:
    case Kind::PushFrame:
    case Kind::PopFrame:
    case Kind::Trap:
      break;
  }
}

/// ntHasSideEffects[i]: does non-terminal i contribute phase-B statements
/// through any option, transitively? Used to prune BrOption/PushFrame
/// scaffolding for the (common) effect-free operands.
std::vector<bool> computeNtSideEffects(const Machine& m) {
  std::vector<bool> has(m.nonTerminals.size(), false);
  // Fixed point over the (acyclic in practice, but don't assume) nt graph.
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < m.nonTerminals.size(); ++i) {
      if (has[i]) continue;
      for (const NtOption& opt : m.nonTerminals[i].options) {
        bool h = !opt.sideEffects.empty();
        for (const Param& p : opt.params)
          if (p.kind == ParamKind::NonTerminal && has[p.index]) h = true;
        if (h) {
          has[i] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return has;
}

}  // namespace

UopTable::UopTable(const Machine& machine) {
  ConstPool pool;
  std::vector<bool> ntSide = computeNtSideEffects(machine);
  byFieldOp_.resize(machine.fields.size());
  for (std::size_t f = 0; f < machine.fields.size(); ++f) {
    const Field& field = machine.fields[f];
    byFieldOp_[f].resize(field.operations.size());
    for (std::size_t o = 0; o < field.operations.size(); ++o) {
      const Operation& op = field.operations[o];
      OpPrograms& progs = byFieldOp_[f][o];
      Compiler(machine, ntSide, pool, narrow_, progs.action)
          .compileStmts(op.action, op.params);
      Compiler sfx(machine, ntSide, pool, narrow_, progs.sideEffects);
      sfx.compileStmts(op.sideEffects, op.params);
      sfx.compileOptionSideEffects(op.params);
    }
  }

  // The pool size is now final: renumber so pool constants occupy registers
  // [0, poolSize) of the shared scratch file and each program's locals
  // follow. Tagged const references resolve to their pool register.
  constPool_ = std::move(pool.values);
  const std::uint32_t poolSize = std::uint32_t(constPool_.size());
  for (auto& row : byFieldOp_) {
    for (OpPrograms& progs : row) {
      for (Program* p : {&progs.action, &progs.sideEffects}) {
        for (Uop& u : p->code)
          forEachRegOperand(u, [&](std::uint32_t& r) {
            r = (r & kConstTag) ? (r & ~kConstTag) : r + poolSize;
          });
        p->numRegs += poolSize;
      }
    }
  }
}

std::uint64_t UopTable::totalUops() const {
  std::uint64_t n = 0;
  for (const auto& row : byFieldOp_)
    for (const OpPrograms& p : row)
      n += p.action.code.size() + p.sideEffects.code.size();
  return n;
}

std::string toString(const Program& p) {
  static constexpr const char* kNames[] = {
      "move",  "ldparam", "read", "readelem", "slice", "unary", "binary",
      "cat2",  "zext",    "sext", "trunc",    "itof",  "ftoi",  "carry",
      "ovf",   "borrow",  "jump", "brz",      "bropt", "push",  "pop",
      "setlv", "stage",   "trap"};
  std::string out;
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const Uop& u = p.code[i];
    out += cat(i, ": ", kNames[std::size_t(u.kind)]);
    switch (u.kind) {
      case Kind::Unary: out += cat(" ", rtl::unOpName(rtl::UnOp(u.op))); break;
      case Kind::Binary:
        out += cat(" ", rtl::binOpName(rtl::BinOp(u.op)));
        break;
      case Kind::Trap: out += cat(" \"", p.traps[u.a], "\""); break;
      default: break;
    }
    out += cat(" dst=", u.dst, " a=", u.a == kNoReg ? -1 : std::int64_t(u.a),
               " b=", u.b, " hi=", u.hi, " lo=", u.lo, "\n");
  }
  return out;
}

}  // namespace isdl::sim::uop

// --- dispatch loop -----------------------------------------------------------

namespace isdl::sim {

void ExecEngine::setUopTable(const uop::UopTable* table) {
  assert(!table || table->narrow());
  uops_ = table;
  // Preload the shared constant pool into the low registers. Programs never
  // write them, so this survives every issue; growth in execProgram (resize)
  // only appends above them.
  regs_.clear();
  if (table)
    for (const BitVector& c : table->constPool())
      regs_.push_back({c.toUint64(), c.width()});
}

/// Executes one compiled program against the engine's state. Registers are
/// (masked uint64_t, width) pairs and every operator is the shared narrow
/// ALU's (rtl/narrow_alu.h), so no BitVector is built in the loop except at
/// the architectural boundary. Storage reads go through readNarrow (the
/// interpreter's pending-write overlay, on words) and staged writes through
/// the same stageWrite, so hazard probing, forwarding, stall attribution,
/// write conflicts, and XTRACE hooks behave identically in both engines.
void ExecEngine::execProgram(const uop::Program& prog,
                             const std::vector<DecodedParam>& dparams,
                             unsigned latency, unsigned stallCost) {
  using uop::Kind;
  if (regs_.size() < prog.numRegs) regs_.resize(prog.numRegs);
  if (lvSlots_.size() < prog.numLvSlots) lvSlots_.resize(prog.numLvSlots);
  frames_.clear();
  frames_.push_back(&dparams);

  narrow::Val* regs = regs_.data();
  const uop::Uop* code = prog.code.data();
  const std::uint32_t n = std::uint32_t(prog.code.size());
  for (std::uint32_t pc = 0; pc < n;) {
    const uop::Uop& u = code[pc];
    switch (u.kind) {
      case Kind::Move: regs[u.dst] = regs[u.a]; ++pc; break;
      case Kind::LoadParam: {
        const BitVector& enc = (*frames_.back())[u.a].encoded;
        regs[u.dst] = {enc.toUint64(), enc.width()};
        ++pc;
        break;
      }
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
      case Kind::BrOption:
        pc = prog.tables[u.b]
                       [std::size_t((*frames_.back())[u.a].ntOption)];
        break;
      case Kind::PushFrame:
        frames_.push_back(&(*frames_.back())[u.a].sub);
        ++pc;
        break;
      case Kind::PopFrame: frames_.pop_back(); ++pc; break;
      case Kind::SetLv: {
        ResolvedLv& lv = lvSlots_[u.dst];
        lv.si = u.a;
        lv.elem = u.b == uop::kNoReg ? 0 : regs[u.b].v;
        if (lv.elem >= machine_.storages[u.a].depth)
          throw rtl::EvalError(cat("write to ", machine_.storages[u.a].name,
                                   "[", lv.elem, "] is out of range"));
        lv.hasSlice = (u.flags & 1) != 0;
        lv.hi = u.hi;
        lv.lo = u.lo;
        ++pc;
        break;
      }
      case Kind::StageWrite:
        stageWrite(lvSlots_[u.dst], BitVector(regs[u.a].w, regs[u.a].v),
                   latency, stallCost);
        ++pc;
        break;
      case Kind::Trap: throw rtl::EvalError(prog.traps[u.a]);
    }
  }
}

}  // namespace isdl::sim
