// Tests for the RTL evaluator and IR helpers, on hand-built expression
// trees.

#include "rtl/eval.h"

#include <gtest/gtest.h>

#include <cmath>

namespace isdl {
namespace {

using rtl::BinOp;
using rtl::EvalContext;
using rtl::Expr;
using rtl::UnOp;

/// Minimal context with a few fixed params and storages for direct IR tests.
class FixtureContext final : public EvalContext {
 public:
  std::vector<BitVector> params;
  std::vector<BitVector> regs;

  BitVector paramValue(unsigned i) const override { return params.at(i); }
  BitVector readStorage(unsigned i) const override { return regs.at(i); }
  BitVector readElement(unsigned i, const BitVector& idx) const override {
    return regs.at(i + idx.toUint64());
  }
};

TEST(RtlEval, BinaryOperatorsBitTrue) {
  BitVector a(8, 0xF0), b(8, 0x3C);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Add, a, b).toUint64(), 0x2Cu);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Sub, a, b).toUint64(), 0xB4u);
  EXPECT_EQ(rtl::applyBinOp(BinOp::And, a, b).toUint64(), 0x30u);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Or, a, b).toUint64(), 0xFCu);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Xor, a, b).toUint64(), 0xCCu);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Mul, a, b).toUint64(), (0xF0u * 0x3Cu) & 0xFF);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Eq, a, a).toUint64(), 1u);
  EXPECT_EQ(rtl::applyBinOp(BinOp::SLt, a, b).toUint64(), 1u);  // -16 < 60
  EXPECT_EQ(rtl::applyBinOp(BinOp::ULt, a, b).toUint64(), 0u);
}

TEST(RtlEval, ShiftAmountSaturation) {
  BitVector a(8, 0x81);
  EXPECT_EQ(rtl::applyBinOp(BinOp::Shl, a, BitVector(16, 300)).toUint64(), 0u);
  EXPECT_EQ(rtl::applyBinOp(BinOp::LShr, a, BitVector(4, 9)).toUint64(), 0u);
  EXPECT_TRUE(rtl::applyBinOp(BinOp::AShr, a, BitVector(8, 200)).isAllOnes());
  EXPECT_EQ(rtl::applyBinOp(BinOp::Shl, a, BitVector(8, 1)).toUint64(), 0x02u);
}

TEST(RtlEval, UnaryOperators) {
  BitVector a(4, 0b1010);
  EXPECT_EQ(rtl::applyUnOp(UnOp::BitNot, a).toUint64(), 0b0101u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::Neg, a).toUint64(), 0b0110u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::LogNot, a).toUint64(), 0u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::LogNot, BitVector(4, 0)).toUint64(), 1u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::RedXor, a).toUint64(), 0u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::RedOr, a).toUint64(), 1u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::RedAnd, a).toUint64(), 0u);
  EXPECT_EQ(rtl::applyUnOp(UnOp::RedAnd, BitVector::allOnes(4)).toUint64(), 1u);
}

TEST(RtlEval, Float32RoundTrip) {
  auto f32 = [](float f) {
    return BitVector(32, std::bit_cast<std::uint32_t>(f));
  };
  BitVector sum = rtl::floatBinOp(BinOp::FAdd, f32(1.5f), f32(2.25f));
  EXPECT_EQ(std::bit_cast<float>(std::uint32_t(sum.toUint64())), 3.75f);
  BitVector prod = rtl::floatBinOp(BinOp::FMul, f32(-2.0f), f32(3.0f));
  EXPECT_EQ(std::bit_cast<float>(std::uint32_t(prod.toUint64())), -6.0f);
  EXPECT_EQ(rtl::floatBinOp(BinOp::FLt, f32(-1.0f), f32(1.0f)).toUint64(), 1u);
  EXPECT_EQ(rtl::floatBinOp(BinOp::FEq, f32(2.0f), f32(2.0f)).toUint64(), 1u);
}

TEST(RtlEval, IntFloatConversions) {
  BitVector f = rtl::intToFloat(BitVector::fromInt(16, -42), 32);
  EXPECT_EQ(std::bit_cast<float>(std::uint32_t(f.toUint64())), -42.0f);
  BitVector i = rtl::floatToInt(f, 16);
  EXPECT_EQ(i.toInt64(), -42);
  // NaN converts to zero; out-of-range clamps.
  BitVector nan(32, std::bit_cast<std::uint32_t>(std::nanf("")));
  EXPECT_TRUE(rtl::floatToInt(nan, 16).isZero());
  BitVector big(32, std::bit_cast<std::uint32_t>(1e9f));
  EXPECT_EQ(rtl::floatToInt(big, 16).toInt64(), 32767);
  BitVector neg(32, std::bit_cast<std::uint32_t>(-1e9f));
  EXPECT_EQ(rtl::floatToInt(neg, 16).toInt64(), -32768);
  // The clamp holds at widths where 2^(w-1) - 1 has no double (w > 54) and
  // past 64 bits.
  auto f64 = [](double d) {
    return BitVector(64, std::bit_cast<std::uint64_t>(d));
  };
  for (unsigned w : {16u, 54u, 55u, 64u, 100u}) {
    SCOPED_TRACE(w);
    BitVector max = BitVector::allOnes(w).lshr(1);
    EXPECT_EQ(rtl::floatToInt(f64(1e30), w), max);
    EXPECT_EQ(rtl::floatToInt(f64(-1e30), w), max.not_());
  }
  EXPECT_EQ(rtl::floatToInt(f64(0x1p63 - 1024), 64).toUint64(),
            0x7ffffffffffffc00u);
  EXPECT_EQ(rtl::floatToInt(f64(-0x1p63), 64).toUint64(), 0x8000000000000000u);
  // In range at 100 bits, including magnitudes past 2^63.
  BitVector e20 = BitVector::fromString(100, "100000000000000000000");
  EXPECT_EQ(rtl::floatToInt(f64(1e20), 100), e20);
  EXPECT_EQ(rtl::floatToInt(f64(-1e20), 100), e20.neg());
  EXPECT_EQ(rtl::floatToInt(f64(-12.75), 100), BitVector::fromInt(100, -12));
}

TEST(RtlEval, ExprTreeEvaluation) {
  // (p0 + S0)[3:0] with p0 = 0x0F, S0 = 0x01.
  FixtureContext ctx;
  ctx.params.push_back(BitVector(8, 0x0F));
  ctx.regs.push_back(BitVector(8, 0x01));
  auto e = Expr::makeSlice(
      Expr::makeBinary(BinOp::Add, Expr::makeParam(0), Expr::makeRead(0)), 3,
      0);
  EXPECT_EQ(rtl::evalExpr(*e, ctx).toUint64(), 0x0u);
  EXPECT_EQ(rtl::evalExpr(*e, ctx).width(), 4u);
}

TEST(RtlEval, TernarySelectsLazily) {
  FixtureContext ctx;
  ctx.regs.push_back(BitVector(8, 7));
  auto e = Expr::makeTernary(Expr::makeConst(BitVector(1, 1)),
                             Expr::makeRead(0),
                             Expr::makeConst(BitVector(8, 99)));
  EXPECT_EQ(rtl::evalExpr(*e, ctx).toUint64(), 7u);
  auto e2 = Expr::makeTernary(Expr::makeConst(BitVector(1, 0)),
                              Expr::makeRead(0),
                              Expr::makeConst(BitVector(8, 99)));
  EXPECT_EQ(rtl::evalExpr(*e2, ctx).toUint64(), 99u);
}

TEST(RtlEval, CarryOverflowBorrow) {
  FixtureContext ctx;
  auto mk = [](rtl::ExprKind k, std::uint64_t a, std::uint64_t b) {
    auto e = std::make_unique<Expr>(k, SourceLoc{});
    e->operands.push_back(Expr::makeConst(BitVector(8, a)));
    e->operands.push_back(Expr::makeConst(BitVector(8, b)));
    e->width = 1;
    return e;
  };
  EXPECT_EQ(rtl::evalExpr(*mk(rtl::ExprKind::Carry, 200, 100), ctx).toUint64(), 1u);
  EXPECT_EQ(rtl::evalExpr(*mk(rtl::ExprKind::Carry, 1, 2), ctx).toUint64(), 0u);
  EXPECT_EQ(rtl::evalExpr(*mk(rtl::ExprKind::Overflow, 100, 100), ctx).toUint64(), 1u);
  EXPECT_EQ(rtl::evalExpr(*mk(rtl::ExprKind::Borrow, 1, 2), ctx).toUint64(), 1u);
  EXPECT_EQ(rtl::evalExpr(*mk(rtl::ExprKind::Borrow, 2, 1), ctx).toUint64(), 0u);
}

TEST(RtlIr, ToStringRenders) {
  auto e = Expr::makeBinary(BinOp::Add, Expr::makeParam(1),
                            Expr::makeConst(BitVector(8, 3)));
  EXPECT_EQ(rtl::toString(*e), "($1 + 0x03)");
}

}  // namespace
}  // namespace isdl
