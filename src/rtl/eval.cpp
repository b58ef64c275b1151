#include "rtl/eval.h"

#include <bit>
#include <cmath>

#include "support/strings.h"

namespace isdl::rtl {

namespace {

BitVector boolBv(bool b) { return BitVector(1, b ? 1 : 0); }

double bitsToDouble(const BitVector& v) {
  if (v.width() == 32)
    return double(std::bit_cast<float>(std::uint32_t(v.toUint64())));
  return std::bit_cast<double>(v.toUint64());
}

BitVector doubleToBits(double d, unsigned width) {
  if (width == 32)
    return BitVector(32, std::bit_cast<std::uint32_t>(float(d)));
  return BitVector(64, std::bit_cast<std::uint64_t>(d));
}

}  // namespace

BitVector floatBinOp(BinOp op, const BitVector& a, const BitVector& b) {
  double x = bitsToDouble(a);
  double y = bitsToDouble(b);
  switch (op) {
    case BinOp::FAdd: return doubleToBits(x + y, a.width());
    case BinOp::FSub: return doubleToBits(x - y, a.width());
    case BinOp::FMul: return doubleToBits(x * y, a.width());
    case BinOp::FDiv: return doubleToBits(x / y, a.width());
    case BinOp::FEq: return boolBv(x == y);
    case BinOp::FLt: return boolBv(x < y);
    case BinOp::FLe: return boolBv(x <= y);
    default:
      throw EvalError("not a floating-point operator");
  }
}

BitVector intToFloat(const BitVector& a, unsigned floatWidth) {
  return doubleToBits(double(a.toInt64()), floatWidth);
}

BitVector floatToInt(const BitVector& a, unsigned intWidth) {
  double d = bitsToDouble(a);
  if (std::isnan(d)) return BitVector(intWidth);
  // Saturate like common DSP float-to-int converters. 2^(w-1) is exact in
  // a double, whereas 2^(w-1) - 1 rounds up to it once w > 54.
  const double lim = std::ldexp(1.0, int(intWidth) - 1);
  const BitVector max = BitVector::allOnes(intWidth).lshr(1);
  if (d >= lim) return max;
  if (d <= -lim) return max.not_();
  if (std::fabs(d) < 0x1p63)
    return BitVector::fromInt(intWidth, std::int64_t(d));
  // |d| >= 2^63 is an integer: its 53-bit mantissa shifted left.
  int exp = 0;
  const double frac = std::frexp(std::fabs(d), &exp);
  BitVector mag = BitVector(intWidth, std::uint64_t(std::ldexp(frac, 53)))
                      .shl(unsigned(exp - 53));
  return d < 0 ? mag.neg() : mag;
}

BitVector applyUnOp(UnOp op, const BitVector& a) {
  switch (op) {
    case UnOp::LogNot: return boolBv(a.isZero());
    case UnOp::BitNot: return a.not_();
    case UnOp::Neg: return a.neg();
    case UnOp::RedAnd: return boolBv(a.reduceAnd());
    case UnOp::RedOr: return boolBv(a.reduceOr());
    case UnOp::RedXor: return boolBv(a.reduceXor());
  }
  throw EvalError("bad unary operator");
}

BitVector applyBinOp(BinOp op, const BitVector& a, const BitVector& b) {
  switch (op) {
    case BinOp::Add: return a.add(b);
    case BinOp::Sub: return a.sub(b);
    case BinOp::Mul: return a.mul(b);
    case BinOp::UDiv: return a.udiv(b);
    case BinOp::SDiv: return a.sdiv(b);
    case BinOp::URem: return a.urem(b);
    case BinOp::SRem: return a.srem(b);
    case BinOp::And: return a.and_(b);
    case BinOp::Or: return a.or_(b);
    case BinOp::Xor: return a.xor_(b);
    case BinOp::Shl:
    case BinOp::LShr:
    case BinOp::AShr: {
      // Saturate huge shift amounts at the operand width (result is then all
      // zeros / sign bits), matching hardware shifter behaviour.
      std::uint64_t amt64 = b.toUint64();
      if (b.width() > 64 && !b.lshr(64).isZero()) amt64 = a.width();
      unsigned amt = amt64 > a.width() ? a.width() : unsigned(amt64);
      if (op == BinOp::Shl) return a.shl(amt);
      if (op == BinOp::LShr) return a.lshr(amt);
      return a.ashr(amt);
    }
    case BinOp::Eq: return boolBv(a == b);
    case BinOp::Ne: return boolBv(!(a == b));
    case BinOp::ULt: return boolBv(a.ult(b));
    case BinOp::ULe: return boolBv(a.ule(b));
    case BinOp::UGt: return boolBv(b.ult(a));
    case BinOp::UGe: return boolBv(b.ule(a));
    case BinOp::SLt: return boolBv(a.slt(b));
    case BinOp::SLe: return boolBv(a.sle(b));
    case BinOp::SGt: return boolBv(b.slt(a));
    case BinOp::SGe: return boolBv(b.sle(a));
    case BinOp::LogAnd: return boolBv(!a.isZero() && !b.isZero());
    case BinOp::LogOr: return boolBv(!a.isZero() || !b.isZero());
    case BinOp::FAdd: case BinOp::FSub: case BinOp::FMul: case BinOp::FDiv:
    case BinOp::FEq: case BinOp::FLt: case BinOp::FLe:
      return floatBinOp(op, a, b);
  }
  throw EvalError("bad binary operator");
}

BitVector evalExpr(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::Const:
      return e.constant;
    case ExprKind::Param:
      return ctx.paramValue(e.paramIndex);
    case ExprKind::Read:
      return ctx.readStorage(e.storageIndex);
    case ExprKind::ReadElem:
      return ctx.readElement(e.storageIndex, evalExpr(*e.operands[0], ctx));
    case ExprKind::Slice:
      return evalExpr(*e.operands[0], ctx).slice(e.sliceHi, e.sliceLo);
    case ExprKind::Unary:
      return applyUnOp(e.unOp, evalExpr(*e.operands[0], ctx));
    case ExprKind::Binary: {
      // Short-circuit semantics are observable through state reads only via
      // traps; evaluate both sides for simplicity (RTL has no side effects
      // inside expressions).
      BitVector a = evalExpr(*e.operands[0], ctx);
      BitVector b = evalExpr(*e.operands[1], ctx);
      return applyBinOp(e.binOp, a, b);
    }
    case ExprKind::Ternary:
      return evalExpr(*e.operands[0], ctx).isZero()
                 ? evalExpr(*e.operands[2], ctx)
                 : evalExpr(*e.operands[1], ctx);
    case ExprKind::ZExt:
      return evalExpr(*e.operands[0], ctx).zext(e.extWidth);
    case ExprKind::SExt:
      return evalExpr(*e.operands[0], ctx).sext(e.extWidth);
    case ExprKind::Trunc:
      return evalExpr(*e.operands[0], ctx).trunc(e.extWidth);
    case ExprKind::Concat: {
      BitVector acc = evalExpr(*e.operands[0], ctx);
      for (std::size_t i = 1; i < e.operands.size(); ++i)
        acc = acc.concat(evalExpr(*e.operands[i], ctx));
      return acc;
    }
    case ExprKind::Carry: {
      BitVector a = evalExpr(*e.operands[0], ctx);
      BitVector b = evalExpr(*e.operands[1], ctx);
      return boolBv(a.addWithCarry(b, false).carryOut);
    }
    case ExprKind::Overflow: {
      BitVector a = evalExpr(*e.operands[0], ctx);
      BitVector b = evalExpr(*e.operands[1], ctx);
      return boolBv(a.addWithCarry(b, false).overflow);
    }
    case ExprKind::Borrow: {
      BitVector a = evalExpr(*e.operands[0], ctx);
      BitVector b = evalExpr(*e.operands[1], ctx);
      // Borrow out of a-b == NOT carry out of a + ~b + 1.
      return boolBv(!a.addWithCarry(b.not_(), true).carryOut);
    }
    case ExprKind::IToF:
      return intToFloat(evalExpr(*e.operands[0], ctx), e.extWidth);
    case ExprKind::FToI:
      return floatToInt(evalExpr(*e.operands[0], ctx), e.extWidth);
  }
  throw EvalError("bad expression kind");
}

}  // namespace isdl::rtl
