// Checks every operation of the shared ≤64-bit ALU (rtl/narrow_alu.h)
// against the arbitrary-width reference the interpreter uses: rtl::evalExpr
// over BitVector operands. Operands cover every value pair at widths 1-6,
// and boundary plus random values at widths that straddle the 32-, 53- and
// 64-bit edges; shift amounts come in widths of their own, and the float
// operators run on 32- and 64-bit IEEE-754 values.

#include "rtl/narrow_alu.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>

#include "rtl/eval.h"
#include "support/strings.h"

namespace isdl {
namespace {

using rtl::BinOp;
using rtl::Expr;
using rtl::ExprKind;
using rtl::ExprPtr;
using rtl::UnOp;

constexpr unsigned kWideWidths[] = {7, 31, 32, 33, 53, 54, 55, 63, 64};

/// Supplies the operands of a reference expression as parameters 0, 1.
class Operands final : public rtl::EvalContext {
 public:
  std::vector<BitVector> v;
  BitVector paramValue(unsigned i) const override { return v[i]; }
  BitVector readStorage(unsigned) const override {
    throw rtl::EvalError("no storage");
  }
  BitVector readElement(unsigned, const BitVector&) const override {
    throw rtl::EvalError("no storage");
  }
};

ExprPtr node(ExprKind k, unsigned nOperands, unsigned extWidth = 0) {
  auto e = std::make_unique<Expr>(k, SourceLoc{});
  for (unsigned i = 0; i < nOperands; ++i)
    e->operands.push_back(Expr::makeParam(i));
  e->extWidth = extWidth;
  return e;
}

narrow::Val val(const BitVector& b) { return {b.toUint64(), b.width()}; }

/// Compares narrow results with the reference and reports the first few
/// mismatches of a test.
class Checker {
 public:
  ~Checker() { EXPECT_EQ(failures_, 0u) << "of " << checks_ << " checks"; }

  /// Checks `got` against the reference value of `e` over `ops`. `what`
  /// names the case and is only built on a mismatch.
  template <typename What>
  void check(narrow::Val got, const Expr& e, std::vector<BitVector> ops,
             What&& what) {
    ++checks_;
    ctx_.v = std::move(ops);
    BitVector want = rtl::evalExpr(e, ctx_);
    if (got.w == want.width() && got.v == want.toUint64()) return;
    if (++failures_ > 10) return;
    std::string args;
    for (const BitVector& o : ctx_.v)
      args += cat(" ", o.width(), "'", o.toHexString());
    ADD_FAILURE() << what() << " of" << args << ": narrow " << got.w << "'"
                  << BitVector(64, got.v).toHexString() << ", reference "
                  << want.width() << "'" << want.toHexString();
  }

 private:
  Operands ctx_;
  std::uint64_t checks_ = 0, failures_ = 0;
};

/// Operand values of width `w`: all of them up to 6 bits, otherwise the
/// boundary values plus random ones (uniform bits and small magnitudes).
std::vector<BitVector> values(unsigned w, std::mt19937_64& rng) {
  std::vector<std::uint64_t> raw;
  if (w <= 6) {
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << w); ++v)
      raw.push_back(v);
  } else {
    const std::uint64_t max = narrow::maskOf(w), sign = max >> 1;
    raw = {0,        1,        2,          3,          max,
           max - 1,  sign,     sign - 1,   sign + 1,   sign + 2,
           w - 1,    w,        w + 1,      0x5555555555555555ull & max,
           0xaaaaaaaaaaaaaaaaull & max};
    for (int i = 0; i < 24; ++i) raw.push_back(rng() & max);
    for (int i = 0; i < 8; ++i) raw.push_back((0 - (rng() & 0xff)) & max);
  }
  std::vector<BitVector> out;
  for (std::uint64_t v : raw)
    out.push_back(BitVector(w, v & narrow::maskOf(w)));
  return out;
}

std::vector<unsigned> allWidths() {
  std::vector<unsigned> ws = {1, 2, 3, 4, 5, 6};
  ws.insert(ws.end(), std::begin(kWideWidths), std::end(kWideWidths));
  return ws;
}

constexpr BinOp kIntBinOps[] = {
    BinOp::Add, BinOp::Sub,  BinOp::Mul,    BinOp::UDiv,  BinOp::SDiv,
    BinOp::URem, BinOp::SRem, BinOp::And,   BinOp::Or,    BinOp::Xor,
    BinOp::Shl, BinOp::LShr, BinOp::AShr,   BinOp::Eq,    BinOp::Ne,
    BinOp::ULt, BinOp::ULe,  BinOp::UGt,    BinOp::UGe,   BinOp::SLt,
    BinOp::SLe, BinOp::SGt,  BinOp::SGe,    BinOp::LogAnd, BinOp::LogOr};

constexpr BinOp kFloatBinOps[] = {BinOp::FAdd, BinOp::FSub, BinOp::FMul,
                                  BinOp::FDiv, BinOp::FEq,  BinOp::FLt,
                                  BinOp::FLe};

constexpr UnOp kUnOps[] = {UnOp::LogNot, UnOp::BitNot, UnOp::Neg,
                           UnOp::RedAnd, UnOp::RedOr,  UnOp::RedXor};

TEST(NarrowAlu, IntegerBinaryOperators) {
  std::mt19937_64 rng(1);
  Checker c;
  for (BinOp op : kIntBinOps) {
    ExprPtr e = Expr::makeBinary(op, Expr::makeParam(0), Expr::makeParam(1));
    for (unsigned w : allWidths()) {
      std::vector<BitVector> vs = values(w, rng);
      for (const BitVector& a : vs)
        for (const BitVector& b : vs)
          c.check(narrow::binOp(op, val(a), val(b)), *e, {a, b},
                  [&] { return rtl::binOpName(op); });
    }
  }
}

TEST(NarrowAlu, ShiftAmountsOfOtherWidths) {
  std::mt19937_64 rng(2);
  Checker c;
  for (BinOp op : {BinOp::Shl, BinOp::LShr, BinOp::AShr}) {
    ExprPtr e = Expr::makeBinary(op, Expr::makeParam(0), Expr::makeParam(1));
    for (unsigned w : allWidths()) {
      for (unsigned wb : {1u, 3u, 6u, 7u, 8u, 32u, 64u}) {
        if (wb == w) continue;  // covered by IntegerBinaryOperators
        std::vector<BitVector> amounts = values(wb, rng);
        for (std::uint64_t s : {w - 1u, w, w + 1u, 63u, 64u, 65u})
          amounts.push_back(BitVector(wb, s & narrow::maskOf(wb)));
        for (const BitVector& a : values(w, rng))
          for (const BitVector& b : amounts)
            c.check(narrow::binOp(op, val(a), val(b)), *e, {a, b},
                    [&] { return rtl::binOpName(op); });
      }
    }
  }
}

TEST(NarrowAlu, UnaryOperators) {
  std::mt19937_64 rng(3);
  Checker c;
  for (UnOp op : kUnOps) {
    ExprPtr e = Expr::makeUnary(op, Expr::makeParam(0));
    for (unsigned w : allWidths())
      for (const BitVector& a : values(w, rng))
        c.check(narrow::unOp(op, val(a)), *e, {a},
                [&] { return rtl::unOpName(op); });
  }
}

TEST(NarrowAlu, CarryOverflowBorrow) {
  std::mt19937_64 rng(4);
  Checker c;
  ExprPtr carry = node(ExprKind::Carry, 2);
  ExprPtr overflow = node(ExprKind::Overflow, 2);
  ExprPtr borrow = node(ExprKind::Borrow, 2);
  for (unsigned w : allWidths()) {
    std::vector<BitVector> vs = values(w, rng);
    for (const BitVector& a : vs) {
      for (const BitVector& b : vs) {
        c.check(narrow::carry(val(a), val(b)), *carry, {a, b},
                [] { return "carry"; });
        c.check(narrow::overflow(val(a), val(b)), *overflow, {a, b},
                [] { return "overflow"; });
        c.check(narrow::borrow(val(a), val(b)), *borrow, {a, b},
                [] { return "borrow"; });
      }
    }
  }
}

TEST(NarrowAlu, SlicesAndExtensions) {
  std::mt19937_64 rng(5);
  Checker c;
  for (unsigned w : allWidths()) {
    std::vector<std::pair<unsigned, unsigned>> slices;
    if (w <= 6) {
      for (unsigned hi = 0; hi < w; ++hi)
        for (unsigned lo = 0; lo <= hi; ++lo) slices.push_back({hi, lo});
    } else {
      slices = {{w - 1, 0}, {w - 1, w - 1}, {0, 0}, {w / 2, 1}, {w - 2, w / 3}};
    }
    std::vector<unsigned> wider, narrower = {1, (w + 1) / 2, w};
    for (unsigned t : {w, w + 1, 32u, 33u, 53u, 63u, 64u})
      if (t >= w && t <= 64) wider.push_back(t);
    std::vector<BitVector> vs = values(w, rng);
    for (auto [hi, lo] : slices) {
      ExprPtr e = Expr::makeSlice(Expr::makeParam(0), hi, lo);
      for (const BitVector& a : vs)
        c.check(narrow::slice(val(a), hi, lo), *e, {a},
                [&] { return cat("slice [", hi, ":", lo, "]"); });
    }
    for (unsigned t : wider) {
      ExprPtr z = node(ExprKind::ZExt, 1, t), s = node(ExprKind::SExt, 1, t);
      for (const BitVector& a : vs) {
        c.check(narrow::zext(val(a), t), *z, {a},
                [&] { return cat("zext ", t); });
        c.check(narrow::sext(val(a), t), *s, {a},
                [&] { return cat("sext ", t); });
      }
    }
    for (unsigned t : narrower) {
      ExprPtr e = node(ExprKind::Trunc, 1, t);
      for (const BitVector& a : vs)
        c.check(narrow::trunc(val(a), t), *e, {a},
                [&] { return cat("trunc ", t); });
    }
  }
}

TEST(NarrowAlu, Concat) {
  std::mt19937_64 rng(6);
  Checker c;
  ExprPtr e = node(ExprKind::Concat, 2);
  std::vector<std::pair<unsigned, unsigned>> widths = {
      {1, 63}, {63, 1}, {31, 33}, {32, 32}, {33, 31}, {53, 7}, {7, 55}};
  for (unsigned wa = 1; wa <= 6; ++wa)
    for (unsigned wb = 1; wb <= 6; ++wb) widths.push_back({wa, wb});
  for (auto [wa, wb] : widths) {
    std::vector<BitVector> as = values(wa, rng), bs = values(wb, rng);
    for (const BitVector& a : as)
      for (const BitVector& b : bs)
        c.check(narrow::concat(val(a), val(b)), *e, {a, b},
                [] { return "concat"; });
  }
}

/// IEEE-754 operands of width `w` (32 or 64): signed zeros, infinities,
/// NaN, subnormals, powers of two around every integer-width edge, and
/// random bit patterns.
std::vector<BitVector> floats(unsigned w, std::mt19937_64& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ds = {0.0,  -0.0,  1.0,   -1.0, 0.5,  -0.5, 1.5,
                            -1.5, 2.75,  -2.75, 1e30, -1e30, inf, -inf,
                            std::nan(""), 5e-324, -5e-324, 1e-40,
                            std::numeric_limits<double>::max()};
  for (int k = 0; k <= 66; ++k) {
    double p = std::ldexp(1.0, k);
    for (double d : {p, p - 1, p + 1, p - 0.5, std::nextafter(p, 0.0)}) {
      ds.push_back(d);
      ds.push_back(-d);
    }
  }
  std::vector<BitVector> out;
  for (double d : ds)
    out.push_back(w == 32
                      ? BitVector(32, std::bit_cast<std::uint32_t>(float(d)))
                      : BitVector(64, std::bit_cast<std::uint64_t>(d)));
  for (int i = 0; i < 24; ++i)
    out.push_back(BitVector(w, rng() & narrow::maskOf(w)));
  return out;
}

TEST(NarrowAlu, FloatBinaryOperators) {
  std::mt19937_64 rng(7);
  Checker c;
  for (BinOp op : kFloatBinOps) {
    ExprPtr e = Expr::makeBinary(op, Expr::makeParam(0), Expr::makeParam(1));
    for (unsigned w : {32u, 64u}) {
      std::vector<BitVector> fs = floats(w, rng);
      for (const BitVector& a : fs)
        for (const BitVector& b : fs)
          c.check(narrow::binOp(op, val(a), val(b)), *e, {a, b},
                  [&] { return rtl::binOpName(op); });
    }
  }
}

TEST(NarrowAlu, IntFloatConversions) {
  std::mt19937_64 rng(8);
  Checker c;
  for (unsigned fw : {32u, 64u}) {
    ExprPtr itof = node(ExprKind::IToF, 1, fw);
    for (unsigned w : allWidths())
      for (const BitVector& a : values(w, rng))
        c.check(narrow::itof(val(a), fw), *itof, {a},
                [&] { return cat("itof ", fw); });
    std::vector<BitVector> fs = floats(fw, rng);
    for (unsigned w : allWidths()) {
      ExprPtr ftoi = node(ExprKind::FToI, 1, w);
      for (const BitVector& a : fs)
        c.check(narrow::ftoi(val(a), w), *ftoi, {a},
                [&] { return cat("ftoi ", w); });
    }
  }
}

}  // namespace
}  // namespace isdl
