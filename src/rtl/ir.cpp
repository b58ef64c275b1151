#include "rtl/ir.h"

#include "support/strings.h"

namespace isdl::rtl {

const char* unOpName(UnOp op) {
  switch (op) {
    case UnOp::LogNot: return "!";
    case UnOp::BitNot: return "~";
    case UnOp::Neg: return "-";
    case UnOp::RedAnd: return "&";
    case UnOp::RedOr: return "|";
    case UnOp::RedXor: return "^";
  }
  return "?";
}

const char* binOpName(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::UDiv: return "/u";
    case BinOp::SDiv: return "/s";
    case BinOp::URem: return "%u";
    case BinOp::SRem: return "%s";
    case BinOp::And: return "&";
    case BinOp::Or: return "|";
    case BinOp::Xor: return "^";
    case BinOp::Shl: return "<<";
    case BinOp::LShr: return ">>";
    case BinOp::AShr: return ">>>";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::ULt: return "<u";
    case BinOp::ULe: return "<=u";
    case BinOp::UGt: return ">u";
    case BinOp::UGe: return ">=u";
    case BinOp::SLt: return "<s";
    case BinOp::SLe: return "<=s";
    case BinOp::SGt: return ">s";
    case BinOp::SGe: return ">=s";
    case BinOp::LogAnd: return "&&";
    case BinOp::LogOr: return "||";
    case BinOp::FAdd: return "+f";
    case BinOp::FSub: return "-f";
    case BinOp::FMul: return "*f";
    case BinOp::FDiv: return "/f";
    case BinOp::FEq: return "==f";
    case BinOp::FLt: return "<f";
    case BinOp::FLe: return "<=f";
  }
  return "?";
}

bool isComparison(BinOp op) {
  switch (op) {
    case BinOp::Eq: case BinOp::Ne:
    case BinOp::ULt: case BinOp::ULe: case BinOp::UGt: case BinOp::UGe:
    case BinOp::SLt: case BinOp::SLe: case BinOp::SGt: case BinOp::SGe:
    case BinOp::FEq: case BinOp::FLt: case BinOp::FLe:
      return true;
    default:
      return false;
  }
}

bool isFloatOp(BinOp op) {
  switch (op) {
    case BinOp::FAdd: case BinOp::FSub: case BinOp::FMul: case BinOp::FDiv:
    case BinOp::FEq: case BinOp::FLt: case BinOp::FLe:
      return true;
    default:
      return false;
  }
}

ExprPtr Expr::makeConst(BitVector v, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Const, loc);
  e->width = v.width();
  e->constant = std::move(v);
  return e;
}

ExprPtr Expr::makeParam(unsigned paramIndex, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Param, loc);
  e->paramIndex = paramIndex;
  return e;
}

ExprPtr Expr::makeRead(unsigned storageIndex, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Read, loc);
  e->storageIndex = storageIndex;
  return e;
}

ExprPtr Expr::makeReadElem(unsigned storageIndex, ExprPtr index,
                           SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::ReadElem, loc);
  e->storageIndex = storageIndex;
  e->operands.push_back(std::move(index));
  return e;
}

ExprPtr Expr::makeSlice(ExprPtr op, unsigned hi, unsigned lo, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Slice, loc);
  e->sliceHi = hi;
  e->sliceLo = lo;
  e->width = hi - lo + 1;
  e->operands.push_back(std::move(op));
  return e;
}

ExprPtr Expr::makeUnary(UnOp op, ExprPtr a, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Unary, loc);
  e->unOp = op;
  e->operands.push_back(std::move(a));
  return e;
}

ExprPtr Expr::makeBinary(BinOp op, ExprPtr a, ExprPtr b, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Binary, loc);
  e->binOp = op;
  e->operands.push_back(std::move(a));
  e->operands.push_back(std::move(b));
  return e;
}

ExprPtr Expr::makeTernary(ExprPtr c, ExprPtr a, ExprPtr b, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Ternary, loc);
  e->operands.push_back(std::move(c));
  e->operands.push_back(std::move(a));
  e->operands.push_back(std::move(b));
  return e;
}

ExprPtr Expr::makeExt(ExprKind k, ExprPtr a, unsigned w, SourceLoc loc) {
  auto e = std::make_unique<Expr>(k, loc);
  e->extWidth = w;
  e->width = w;
  e->operands.push_back(std::move(a));
  return e;
}

ExprPtr Expr::makeConcat(std::vector<ExprPtr> parts, SourceLoc loc) {
  auto e = std::make_unique<Expr>(ExprKind::Concat, loc);
  e->operands = std::move(parts);
  return e;
}

StmtPtr Stmt::makeAssign(Lvalue dest, ExprPtr value, SourceLoc loc) {
  auto s = std::make_unique<Stmt>(StmtKind::Assign, loc);
  s->dest = std::move(dest);
  s->value = std::move(value);
  return s;
}

StmtPtr Stmt::makeIf(ExprPtr cond, std::vector<StmtPtr> thenStmts,
                     std::vector<StmtPtr> elseStmts, SourceLoc loc) {
  auto s = std::make_unique<Stmt>(StmtKind::If, loc);
  s->cond = std::move(cond);
  s->thenStmts = std::move(thenStmts);
  s->elseStmts = std::move(elseStmts);
  return s;
}

std::string toString(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Const:
      return e.constant.valid() ? e.constant.toHexString() : "<unsized>";
    case ExprKind::Param:
      return cat("$", e.paramIndex);
    case ExprKind::Read:
      return cat("S", e.storageIndex);
    case ExprKind::ReadElem:
      return cat("S", e.storageIndex, "[", toString(*e.operands[0]), "]");
    case ExprKind::Slice:
      return cat(toString(*e.operands[0]), "[", e.sliceHi, ":", e.sliceLo,
                 "]");
    case ExprKind::Unary:
      return cat(unOpName(e.unOp), "(", toString(*e.operands[0]), ")");
    case ExprKind::Binary:
      return cat("(", toString(*e.operands[0]), " ", binOpName(e.binOp), " ",
                 toString(*e.operands[1]), ")");
    case ExprKind::Ternary:
      return cat("(", toString(*e.operands[0]), " ? ",
                 toString(*e.operands[1]), " : ", toString(*e.operands[2]),
                 ")");
    case ExprKind::ZExt:
      return cat("zext(", toString(*e.operands[0]), ", ", e.extWidth, ")");
    case ExprKind::SExt:
      return cat("sext(", toString(*e.operands[0]), ", ", e.extWidth, ")");
    case ExprKind::Trunc:
      return cat("trunc(", toString(*e.operands[0]), ", ", e.extWidth, ")");
    case ExprKind::Concat: {
      std::string s = "concat(";
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i) s += ", ";
        s += toString(*e.operands[i]);
      }
      return s + ")";
    }
    case ExprKind::Carry:
      return cat("carry(", toString(*e.operands[0]), ", ",
                 toString(*e.operands[1]), ")");
    case ExprKind::Overflow:
      return cat("overflow(", toString(*e.operands[0]), ", ",
                 toString(*e.operands[1]), ")");
    case ExprKind::Borrow:
      return cat("borrow(", toString(*e.operands[0]), ", ",
                 toString(*e.operands[1]), ")");
    case ExprKind::IToF:
      return cat("itof(", toString(*e.operands[0]), ", ", e.extWidth, ")");
    case ExprKind::FToI:
      return cat("ftoi(", toString(*e.operands[0]), ", ", e.extWidth, ")");
  }
  return "?";
}

}  // namespace isdl::rtl
