#include "isdl/sema.h"

#include <algorithm>

#include "support/strings.h"

namespace isdl {

unsigned addressBits(std::uint64_t depth) {
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < depth && bits < 63) ++bits;
  return bits;
}

unsigned paramValueWidth(const Machine& m, const Param& p) {
  if (p.kind == ParamKind::Token) return m.tokens[p.index].width;
  return m.nonTerminals[p.index].valueWidth;
}

namespace {

using rtl::BinOp;
using rtl::Expr;
using rtl::ExprKind;
using rtl::Stmt;
using rtl::StmtKind;
using rtl::UnOp;

class Checker {
 public:
  Checker(Machine& m, DiagnosticEngine& diags) : m_(m), diags_(diags) {}

  bool run() {
    checkStructure();
    resolveHaltOperation();
    resolveNonTerminals();
    checkInstructionSet();
    return !diags_.hasErrors();
  }

 private:
  Machine& m_;
  DiagnosticEngine& diags_;
  const std::vector<Param>* params_ = nullptr;
  /// The operation whose action or side effects are being checked; null
  /// inside non-terminal options.
  Operation* op_ = nullptr;

  void error(SourceLoc loc, std::string msg) {
    diags_.error(loc, std::move(msg));
  }

  // --- structural checks ------------------------------------------------------
  void checkStructure() {
    if (m_.wordWidth == 0)
      error({}, "format section must set word_width");
    if (m_.fields.empty())
      error({}, "instruction_set section must define at least one field");

    for (std::size_t i = 0; i < m_.storages.size(); ++i) {
      const StorageDef& st = m_.storages[i];
      if (st.kind == StorageKind::ProgramCounter) {
        if (m_.pcIndex >= 0)
          error(st.loc, "multiple program_counter storages defined");
        m_.pcIndex = static_cast<int>(i);
      }
      if (st.kind == StorageKind::InstructionMemory) {
        if (m_.imemIndex >= 0)
          error(st.loc, "multiple instruction_memory storages defined");
        m_.imemIndex = static_cast<int>(i);
      }
    }
    if (m_.pcIndex < 0)
      error({}, "storage section must define a program_counter");
    if (m_.imemIndex < 0)
      error({}, "storage section must define an instruction_memory");
    if (m_.pcIndex >= 0 && m_.imemIndex >= 0) {
      const StorageDef& pc = m_.storages[m_.pcIndex];
      const StorageDef& im = m_.storages[m_.imemIndex];
      if (pc.width < addressBits(im.depth))
        diags_.warning(pc.loc,
                       cat("program counter width ", pc.width,
                           " cannot address all ", im.depth,
                           " instruction memory locations"));
      if (im.width != m_.wordWidth)
        error(im.loc, cat("instruction memory width ", im.width,
                          " must equal word_width ", m_.wordWidth));
    }

    for (auto& field : m_.fields) {
      if (field.operations.empty())
        error(field.loc, cat("field '", field.name, "' has no operations"));
      // nop detection: by name first, else a parameterless operation with an
      // empty action.
      for (std::size_t i = 0; i < field.operations.size(); ++i) {
        if (field.operations[i].name == "nop") {
          field.nopIndex = static_cast<int>(i);
          break;
        }
      }
      if (field.nopIndex < 0) {
        for (std::size_t i = 0; i < field.operations.size(); ++i) {
          const Operation& op = field.operations[i];
          if (op.params.empty() && op.action.empty() &&
              op.sideEffects.empty()) {
            field.nopIndex = static_cast<int>(i);
            break;
          }
        }
      }
    }
  }

  /// Resolves optional-info `halt_operation = "F.op"` into Machine::haltOp,
  /// the one place every back end reads it from.
  void resolveHaltOperation() {
    auto it = m_.optionalInfo.find("halt_operation");
    if (it == m_.optionalInfo.end()) return;
    const std::string& name = it->second;
    auto dot = name.find('.');
    int f = dot == std::string::npos ? -1 : m_.findField(name.substr(0, dot));
    int o = f < 0 ? -1 : m_.fields[f].findOperation(name.substr(dot + 1));
    if (o < 0) {
      auto loc = m_.optionalLocs.find("halt_operation");
      error(loc == m_.optionalLocs.end() ? SourceLoc{} : loc->second,
            cat("optional halt_operation '", name,
                "' does not name a field.operation"));
      return;
    }
    m_.haltOp = OpRef{static_cast<unsigned>(f), static_cast<unsigned>(o)};
  }

  // --- non-terminal resolution -----------------------------------------------------
  void resolveNonTerminals() {
    // Declaration order guarantees that any non-terminal referenced by an
    // option's parameters has already been resolved.
    for (auto& nt : m_.nonTerminals) {
      bool allHaveValue = !nt.options.empty();
      bool allHaveLvalue = !nt.options.empty();
      unsigned valueWidth = 0;
      unsigned lvalueWidth = 0;
      for (auto& opt : nt.options) {
        params_ = &opt.params;
        checkEncoding(opt.encode, opt.params, nt.returnWidth, nt.loc,
                      [&] { return cat("non-terminal '", nt.name, "'"); });
        if (opt.value) {
          unsigned w = checkExpr(*opt.value, 0);
          if (valueWidth == 0) valueWidth = w;
          else if (w != 0 && w != valueWidth)
            error(opt.loc, cat("options of non-terminal '", nt.name,
                               "' disagree on value width (", valueWidth,
                               " vs ", w, ")"));
        } else {
          allHaveValue = false;
        }
        if (opt.lvalue) {
          unsigned w = checkLvalue(*opt.lvalue);
          if (lvalueWidth == 0) lvalueWidth = w;
          else if (w != 0 && w != lvalueWidth)
            error(opt.loc, cat("options of non-terminal '", nt.name,
                               "' disagree on lvalue width (", lvalueWidth,
                               " vs ", w, ")"));
        } else {
          allHaveLvalue = false;
        }
        for (auto& s : opt.sideEffects) checkStmt(*s);
        params_ = nullptr;
      }
      nt.valueWidth = allHaveValue ? valueWidth : 0;
      nt.lvalueWidth = allHaveLvalue ? lvalueWidth : 0;
    }
  }

  // --- instruction set ---------------------------------------------------------------
  void checkInstructionSet() {
    for (auto& field : m_.fields) {
      for (auto& op : field.operations) {
        // Built only for a diagnostic: most operations have none.
        auto ctx = [&] {
          return cat("operation '", field.name, ".", op.name, "'");
        };
        if (op.costs.cycle == 0)
          error(op.loc, ctx() + ": cycle cost must be >= 1");
        if (op.costs.size == 0)
          error(op.loc, ctx() + ": size cost must be >= 1");
        if (op.timing.latency == 0)
          error(op.loc, ctx() + ": latency must be >= 1");
        if (op.timing.usage == 0)
          error(op.loc, ctx() + ": usage must be >= 1");

        params_ = &op.params;
        op_ = &op;
        checkEncoding(op.encode, op.params, op.costs.size * m_.wordWidth,
                      op.loc, ctx);
        for (auto& s : op.action) checkStmt(*s);
        for (auto& s : op.sideEffects) checkStmt(*s);
        params_ = nullptr;
        op_ = nullptr;
      }
    }
  }

  /// Validates one encode block: bits in range, no overlap, every parameter
  /// fully encoded (otherwise the assembly function is not reversible and
  /// disassembly — paper §3.3.2 — is impossible). `ctx()` names the
  /// definition in a diagnostic.
  template <typename Ctx>
  void checkEncoding(const std::vector<EncodeAssign>& encode,
                     const std::vector<Param>& params, unsigned totalBits,
                     SourceLoc loc, const Ctx& ctx) {
    std::vector<bool> covered(totalBits, false);
    // Per parameter, which of its bits are present in the encoding.
    std::vector<std::vector<bool>> paramBits(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      paramBits[i].assign(m_.paramEncodingWidth(params[i]), false);

    for (const auto& ea : encode) {
      if (ea.hi >= totalBits) {
        error(ea.loc, cat(ctx(), ": bit ", ea.hi, " exceeds instruction size (",
                          totalBits, " bits)"));
        continue;
      }
      for (unsigned b = ea.lo; b <= ea.hi; ++b) {
        if (covered[b])
          error(ea.loc, cat(ctx(), ": bit ", b, " assigned more than once"));
        covered[b] = true;
      }
      if (ea.src == EncodeAssign::Src::Param) {
        auto& bits = paramBits[ea.paramIndex];
        for (unsigned b = 0; b < bits.size(); ++b) bits[b] = true;
      } else if (ea.src == EncodeAssign::Src::ParamSlice) {
        auto& bits = paramBits[ea.paramIndex];
        for (unsigned b = ea.paramLo; b <= ea.paramHi; ++b) bits[b] = true;
      }
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      for (unsigned b = 0; b < paramBits[i].size(); ++b) {
        if (!paramBits[i][b]) {
          error(loc, cat(ctx(), ": bit ", b, " of parameter '", params[i].name,
                         "' never appears in the encoding, so the assembly "
                         "function is not reversible"));
          break;
        }
      }
    }
  }

  // --- RTL width checking ---------------------------------------------------------------
  static bool isUnsizedConst(const Expr& e) {
    return e.kind == ExprKind::Const && e.width == 0;
  }

  /// Coerces an unsized constant to `w` bits (value must fit).
  void coerceConst(Expr& e, unsigned w) {
    std::uint64_t v = e.constant.toUint64();
    if (w < 64 && (v >> w) != 0) {
      error(e.loc, cat("constant ", v, " does not fit in ", w, " bits"));
    }
    e.constant = BitVector(w, v);
    e.width = w;
    m_.widestValue = std::max(m_.widestValue, w);
  }

  /// Width-checks `e`; `expected` is a hint used only to size unsized integer
  /// constants (0 = no hint). Returns the resolved width (0 on error) and
  /// records the final width in Machine::widestValue: a constant sized later
  /// by its sibling (checkBalanced, shift amounts) is recorded by
  /// coerceConst.
  unsigned checkExpr(Expr& e, unsigned expected) {
    unsigned w = inferWidth(e, expected);
    m_.widestValue = std::max(m_.widestValue, e.width);
    return w;
  }

  unsigned inferWidth(Expr& e, unsigned expected) {
    switch (e.kind) {
      case ExprKind::Const:
        if (e.width == 0) {
          if (expected == 0) {
            error(e.loc,
                  "cannot infer the width of this constant; use a sized "
                  "literal like 8'd255");
            return 0;
          }
          coerceConst(e, expected);
        }
        return e.width;

      case ExprKind::Param: {
        if (!params_ || e.paramIndex >= params_->size()) {
          error(e.loc, "parameter reference outside a parameter scope");
          return 0;
        }
        const Param& p = (*params_)[e.paramIndex];
        unsigned w = paramValueWidth(m_, p);
        if (w == 0) {
          error(e.loc, cat("parameter '", p.name,
                           "' has no runtime value (not every option of its "
                           "non-terminal defines `value`)"));
          return 0;
        }
        e.width = w;
        return w;
      }

      case ExprKind::Read: {
        const StorageDef& st = m_.storages[e.storageIndex];
        if (isAddressed(st.kind)) {
          error(e.loc, cat("storage '", st.name, "' must be indexed"));
          return 0;
        }
        e.width = st.width;
        return e.width;
      }

      case ExprKind::ReadElem: {
        const StorageDef& st = m_.storages[e.storageIndex];
        checkExpr(*e.operands[0], addressBits(st.depth));
        e.width = st.width;
        return e.width;
      }

      case ExprKind::Slice: {
        unsigned w = checkExpr(*e.operands[0], 0);
        if (w == 0) return 0;
        if (e.sliceHi >= w) {
          error(e.loc, cat("slice bit ", e.sliceHi,
                           " out of range for width ", w));
          return 0;
        }
        e.width = e.sliceHi - e.sliceLo + 1;
        return e.width;
      }

      case ExprKind::Unary: {
        switch (e.unOp) {
          case UnOp::LogNot:
          case UnOp::RedAnd:
          case UnOp::RedOr:
          case UnOp::RedXor:
            checkExpr(*e.operands[0], 0);
            e.width = 1;
            return 1;
          case UnOp::BitNot:
          case UnOp::Neg: {
            unsigned w = checkExpr(*e.operands[0], expected);
            e.width = w;
            return w;
          }
        }
        return 0;
      }

      case ExprKind::Binary:
        return checkBinary(e, expected);

      case ExprKind::Ternary: {
        unsigned cw = checkExpr(*e.operands[0], 1);
        if (cw != 0 && cw != 1)
          error(e.operands[0]->loc,
                cat("ternary condition must be 1 bit wide, got ", cw));
        unsigned w = checkBalanced(*e.operands[1], *e.operands[2], expected);
        e.width = w;
        return w;
      }

      case ExprKind::ZExt:
      case ExprKind::SExt:
      case ExprKind::Trunc: {
        unsigned w = checkExpr(*e.operands[0], e.extWidth);
        if (w == 0) return 0;
        if ((e.kind == ExprKind::Trunc && w < e.extWidth) ||
            (e.kind != ExprKind::Trunc && w > e.extWidth))
          error(e.loc, cat("cannot ", e.kind == ExprKind::Trunc ? "truncate"
                           : e.kind == ExprKind::ZExt ? "zero-extend"
                                                      : "sign-extend",
                           " width ", w, " to width ", e.extWidth));
        e.width = e.extWidth;
        return e.width;
      }

      case ExprKind::Concat: {
        unsigned total = 0;
        for (auto& op : e.operands) {
          unsigned w = checkExpr(*op, 0);
          if (w == 0) return 0;
          total += w;
        }
        e.width = total;
        return total;
      }

      case ExprKind::Carry:
      case ExprKind::Overflow:
      case ExprKind::Borrow: {
        checkBalanced(*e.operands[0], *e.operands[1], 0);
        e.width = 1;
        return 1;
      }

      case ExprKind::IToF: {
        unsigned w = checkExpr(*e.operands[0], 0);
        if (w == 0) return 0;
        e.width = e.extWidth;
        return e.width;
      }
      case ExprKind::FToI: {
        unsigned w = checkExpr(*e.operands[0], 0);
        if (w != 0 && w != 32 && w != 64)
          error(e.loc, cat("ftoi operand must be 32 or 64 bits, got ", w));
        e.width = e.extWidth;
        return e.width;
      }
    }
    return 0;
  }

  /// Checks a pair of operands that must agree in width (handling unsized
  /// constants on either side). Returns the common width.
  unsigned checkBalanced(Expr& a, Expr& b, unsigned expected) {
    if (isUnsizedConst(a) && !isUnsizedConst(b)) {
      unsigned wb = checkExpr(b, expected);
      if (wb == 0) return 0;
      coerceConst(a, wb);
      return wb;
    }
    unsigned wa = checkExpr(a, expected);
    unsigned wb = checkExpr(b, wa != 0 ? wa : expected);
    if (wa == 0 || wb == 0) return 0;
    if (wa != wb) {
      error(b.loc, cat("operand widths differ: ", wa, " vs ", wb,
                       " (use zext/sext/trunc to convert explicitly)"));
      return 0;
    }
    return wa;
  }

  unsigned checkBinary(Expr& e, unsigned expected) {
    Expr& a = *e.operands[0];
    Expr& b = *e.operands[1];
    BinOp op = e.binOp;

    if (op == BinOp::Shl || op == BinOp::LShr || op == BinOp::AShr) {
      unsigned w = checkExpr(a, expected);
      // Shift amounts may have any width; unsized constants get the minimal
      // width that holds their value.
      if (isUnsizedConst(b)) {
        std::uint64_t v = b.constant.toUint64();
        unsigned bits = 1;
        while ((std::uint64_t{1} << bits) <= v && bits < 63) ++bits;
        coerceConst(b, bits);
      } else {
        checkExpr(b, 0);
      }
      e.width = w;
      return w;
    }

    if (op == BinOp::LogAnd || op == BinOp::LogOr) {
      unsigned wa = checkExpr(a, 1);
      unsigned wb = checkExpr(b, 1);
      if ((wa != 0 && wa != 1) || (wb != 0 && wb != 1))
        error(e.loc, "&& and || require 1-bit operands (use comparisons)");
      e.width = 1;
      return 1;
    }

    unsigned w = checkBalanced(a, b, rtl::isComparison(op) ? 0 : expected);
    if (rtl::isFloatOp(op) && w != 0 && w != 32 && w != 64)
      error(e.loc, cat("floating-point operands must be 32 or 64 bits, got ",
                       w));
    e.width = rtl::isComparison(op) ? 1 : w;
    return e.width;
  }

  /// Returns the width written by the lvalue (0 on error).
  unsigned checkLvalue(rtl::Lvalue& lv) {
    if (lv.isParam) {
      if (!params_ || lv.paramIndex >= params_->size()) {
        error(lv.loc, "parameter lvalue outside a parameter scope");
        return 0;
      }
      const Param& p = (*params_)[lv.paramIndex];
      if (p.kind != ParamKind::NonTerminal ||
          m_.nonTerminals[p.index].lvalueWidth == 0) {
        error(lv.loc, cat("parameter '", p.name,
                          "' cannot be assigned (not every option of its "
                          "non-terminal defines `lvalue`)"));
        return 0;
      }
      return m_.nonTerminals[p.index].lvalueWidth;
    }
    const StorageDef& st = m_.storages[lv.storageIndex];
    if (isAddressed(st.kind)) {
      if (!lv.index) {
        error(lv.loc, cat("storage '", st.name, "' must be indexed"));
        return 0;
      }
      checkExpr(*lv.index, addressBits(st.depth));
    } else if (lv.index) {
      // Aliases of whole register-file elements carry a constant index even
      // for addressed targets; a non-addressed target must not be indexed.
      checkExpr(*lv.index, addressBits(st.depth));
    }
    if (lv.hasSlice) {
      if (lv.sliceHi >= st.width) {
        error(lv.loc, cat("lvalue slice bit ", lv.sliceHi,
                          " out of range for width ", st.width));
        return 0;
      }
      return lv.sliceHi - lv.sliceLo + 1;
    }
    return st.width;
  }

  void checkStmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign: {
        unsigned dw = checkLvalue(s.dest);
        unsigned vw = checkExpr(*s.value, dw);
        if (dw != 0 && vw != 0 && dw != vw)
          error(s.loc, cat("assignment width mismatch: destination is ", dw,
                           " bits, value is ", vw,
                           " bits (use zext/sext/trunc)"));
        if (!s.dest.isParam) {
          if (op_ && static_cast<int>(s.dest.storageIndex) == m_.pcIndex)
            op_->writesPc = true;
          const StorageDef& st = m_.storages[s.dest.storageIndex];
          if (st.kind == StorageKind::InstructionMemory)
            diags_.warning(s.loc,
                           "writing instruction memory: the off-line "
                           "disassembler will not see the modified code");
        }
        break;
      }
      case StmtKind::If: {
        unsigned cw = checkExpr(*s.cond, 1);
        if (cw != 0 && cw != 1)
          error(s.cond->loc, cat("if condition must be 1 bit wide, got ", cw));
        for (auto& t : s.thenStmts) checkStmt(*t);
        for (auto& t : s.elseStmts) checkStmt(*t);
        break;
      }
    }
  }
};

}  // namespace

bool checkMachine(Machine& machine, DiagnosticEngine& diags) {
  return Checker(machine, diags).run();
}

}  // namespace isdl
