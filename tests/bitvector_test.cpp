// Unit and property tests for BitVector: the bit-true value type every other
// component builds on. Properties are cross-checked against native 64-bit
// arithmetic at widths 1..64 and against hand-computed values above 64.

#include "support/bitvector.h"

#include <gtest/gtest.h>

#include <random>

namespace isdl {
namespace {

TEST(BitVector, DefaultIsInvalid) {
  BitVector v;
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.width(), 0u);
}

TEST(BitVector, ZeroWidthConstructionThrows) {
  EXPECT_THROW(BitVector(0), std::invalid_argument);
}

TEST(BitVector, ValueConstructionTruncates) {
  BitVector v(4, 0xAB);
  EXPECT_EQ(v.toUint64(), 0xBu);
  EXPECT_EQ(v.width(), 4u);
}

TEST(BitVector, BitAccess) {
  BitVector v(8, 0b10110010);
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_TRUE(v.bit(7));
  EXPECT_THROW(v.bit(8), std::out_of_range);
  v.setBit(0, true);
  EXPECT_EQ(v.toUint64(), 0b10110011u);
  v.setBit(7, false);
  EXPECT_EQ(v.toUint64(), 0b00110011u);
}

TEST(BitVector, WideValuesCrossWordBoundary) {
  BitVector v(128);
  v.setBit(0, true);
  v.setBit(64, true);
  v.setBit(127, true);
  EXPECT_EQ(v.popcount(), 3u);
  EXPECT_TRUE(v.bit(64));
  BitVector shifted = v.shl(1);
  EXPECT_TRUE(shifted.bit(1));
  EXPECT_TRUE(shifted.bit(65));
  EXPECT_FALSE(shifted.bit(127));  // msb shifted out
  EXPECT_EQ(shifted.popcount(), 2u);
}

TEST(BitVector, HeapWidths) {
  // > 128 bits spills to the heap; exercise copy/move/assign.
  BitVector a = BitVector::allOnes(200);
  BitVector b = a;  // copy
  EXPECT_EQ(a, b);
  BitVector c = std::move(a);
  EXPECT_EQ(c, b);
  EXPECT_TRUE(c.isAllOnes());
  c.setBit(199, false);
  EXPECT_FALSE(c.isAllOnes());
  EXPECT_NE(c, b);
  b = c;  // copy-assign heap -> heap
  EXPECT_EQ(b, c);
  b = BitVector(8, 1);  // heap -> inline
  EXPECT_EQ(b.width(), 8u);
}

TEST(BitVector, FromStringHex) {
  EXPECT_EQ(BitVector::fromString(16, "0xBEEF").toUint64(), 0xBEEFu);
  EXPECT_EQ(BitVector::fromString(8, "0xF").toUint64(), 0xFu);
  EXPECT_EQ(BitVector::fromString(4, "0xBEEF").toUint64(), 0xFu);  // truncates
  EXPECT_THROW(BitVector::fromString(8, "0xZZ"), std::invalid_argument);
}

TEST(BitVector, FromStringBinaryAndDecimal) {
  EXPECT_EQ(BitVector::fromString(8, "0b1010").toUint64(), 10u);
  EXPECT_EQ(BitVector::fromString(8, "255").toUint64(), 255u);
  EXPECT_EQ(BitVector::fromString(8, "256").toUint64(), 0u);  // wraps mod 2^8
  EXPECT_EQ(BitVector::fromString(8, "-1").toUint64(), 255u);
  EXPECT_THROW(BitVector::fromString(8, ""), std::invalid_argument);
  EXPECT_THROW(BitVector::fromString(8, "12a"), std::invalid_argument);
}

TEST(BitVector, FromStringWide) {
  BitVector v = BitVector::fromString(128, "0xffffffffffffffffffffffffffffffff");
  EXPECT_TRUE(v.isAllOnes());
  BitVector d = BitVector::fromString(80, "1208925819614629174706176");  // 2^80
  EXPECT_TRUE(d.isZero());  // wraps
}

TEST(BitVector, DecimalRoundTrip) {
  BitVector v = BitVector::fromString(100, "1267650600228229401496703205375");
  EXPECT_EQ(v.toUnsignedDecimalString(), "1267650600228229401496703205375");
  EXPECT_EQ(BitVector(8, 0).toUnsignedDecimalString(), "0");
}

TEST(BitVector, ToInt64SignExtends) {
  EXPECT_EQ(BitVector(4, 0xF).toInt64(), -1);
  EXPECT_EQ(BitVector(4, 0x7).toInt64(), 7);
  EXPECT_EQ(BitVector(64, ~0ull).toInt64(), -1);
}

TEST(BitVector, FromIntSignExtendsAcrossWords) {
  BitVector v = BitVector::fromInt(100, -1);
  EXPECT_TRUE(v.isAllOnes());
  BitVector w = BitVector::fromInt(100, -2);
  EXPECT_FALSE(w.bit(0));
  EXPECT_TRUE(w.bit(99));
}

TEST(BitVector, Extensions) {
  BitVector v(4, 0b1010);
  EXPECT_EQ(v.zext(8).toUint64(), 0b1010u);
  EXPECT_EQ(v.sext(8).toUint64(), 0b11111010u);
  EXPECT_EQ(BitVector(4, 0b0101).sext(8).toUint64(), 0b0101u);
  EXPECT_EQ(BitVector(8, 0xAB).trunc(4).toUint64(), 0xBu);
  EXPECT_THROW(v.zext(2), std::invalid_argument);
  EXPECT_THROW(v.trunc(8), std::invalid_argument);
  EXPECT_EQ(v.resize(8).toUint64(), 0b1010u);
  EXPECT_EQ(BitVector(8, 0xAB).resize(4).toUint64(), 0xBu);
}

TEST(BitVector, SextAcrossWordBoundary) {
  BitVector v(32, 0x80000000u);
  BitVector w = v.sext(96);
  for (unsigned i = 31; i < 96; ++i) EXPECT_TRUE(w.bit(i)) << i;
  EXPECT_FALSE(w.bit(0));
}

TEST(BitVector, SliceBasic) {
  BitVector v(16, 0xABCD);
  EXPECT_EQ(v.slice(7, 0).toUint64(), 0xCDu);
  EXPECT_EQ(v.slice(15, 8).toUint64(), 0xABu);
  EXPECT_EQ(v.slice(11, 4).toUint64(), 0xBCu);
  EXPECT_EQ(v.slice(0, 0).width(), 1u);
  EXPECT_THROW(v.slice(16, 0), std::out_of_range);
  EXPECT_THROW(v.slice(3, 5), std::out_of_range);
}

TEST(BitVector, SliceAcrossWordBoundary) {
  BitVector v(128);
  v.insertSlice(71, 56, BitVector(16, 0xBEEF));
  EXPECT_EQ(v.slice(71, 56).toUint64(), 0xBEEFu);
  EXPECT_EQ(v.slice(63, 56).toUint64(), 0xEFu);
  EXPECT_EQ(v.slice(71, 64).toUint64(), 0xBEu);
}

TEST(BitVector, InsertSliceMatchesPerBitReference) {
  std::mt19937_64 rng(42);
  auto random = [&](unsigned width) {
    BitVector v(width);
    for (unsigned i = 0; i < v.numWords(); ++i) v.setWord(i, rng());
    return v;
  };
  const unsigned widths[] = {65, 96, 128, 130, 200};
  for (unsigned width : widths) {
    for (int trial = 0; trial < 300; ++trial) {
      const unsigned lo = static_cast<unsigned>(rng() % width);
      const unsigned hi = lo + static_cast<unsigned>(rng() % (width - lo));
      const BitVector base = random(width);
      const BitVector v = random(hi - lo + 1);
      BitVector ref = base;
      for (unsigned i = 0; i < v.width(); ++i) ref.setBit(lo + i, v.bit(i));
      BitVector got = base;
      got.insertSlice(hi, lo, v);
      ASSERT_EQ(got, ref) << "width " << width << " [" << hi << ":" << lo
                          << "]";
    }
  }
}

TEST(BitVector, SetWordKeepsTopWordClean) {
  BitVector v(70);
  EXPECT_EQ(v.numWords(), 2u);
  v.setWord(0, ~std::uint64_t{0});
  v.setWord(1, ~std::uint64_t{0});
  EXPECT_EQ(v.word(1), 0x3Fu);  // bits 69..64 only
  EXPECT_TRUE(v.isAllOnes());
  EXPECT_EQ(v, BitVector::allOnes(70));
  BitVector w(64);
  w.setWord(0, 0x8000000000000001u);
  EXPECT_EQ(w.toUint64(), 0x8000000000000001u);
  EXPECT_EQ(BitVector().numWords(), 0u);
}

TEST(BitVector, InsertSliceChecksWidths) {
  BitVector v(16);
  EXPECT_THROW(v.insertSlice(7, 0, BitVector(4, 1)), std::invalid_argument);
  EXPECT_THROW(v.insertSlice(16, 9, BitVector(8, 1)), std::out_of_range);
  BitVector w = v.withSlice(11, 4, BitVector(8, 0xFF));
  EXPECT_EQ(w.toUint64(), 0x0FF0u);
  EXPECT_EQ(v.toUint64(), 0u);  // withSlice does not mutate
}

TEST(BitVector, Concat) {
  BitVector hi(8, 0xAB);
  BitVector lo(4, 0xC);
  BitVector c = hi.concat(lo);
  EXPECT_EQ(c.width(), 12u);
  EXPECT_EQ(c.toUint64(), 0xABCu);
}

TEST(BitVector, AddCarryOverflow) {
  BitVector a(8, 200), b(8, 100);
  auto r = a.addWithCarry(b, false);
  EXPECT_EQ(r.sum.toUint64(), 44u);  // 300 mod 256
  EXPECT_TRUE(r.carryOut);
  // 200 = -56 signed, 100 signed: -56+100 = 44, no signed overflow.
  EXPECT_FALSE(r.overflow);

  BitVector c(8, 100), d(8, 100);
  auto r2 = c.addWithCarry(d, false);
  EXPECT_EQ(r2.sum.toUint64(), 200u);
  EXPECT_FALSE(r2.carryOut);
  EXPECT_TRUE(r2.overflow);  // 100+100 = 200 = -56 signed

  auto r3 = BitVector(8, 255).addWithCarry(BitVector(8, 0), true);
  EXPECT_EQ(r3.sum.toUint64(), 0u);
  EXPECT_TRUE(r3.carryOut);
}

TEST(BitVector, DivisionByZeroConventions) {
  BitVector x(8, 42), zero(8, 0);
  EXPECT_TRUE(x.udiv(zero).isAllOnes());
  EXPECT_EQ(x.urem(zero), x);
  EXPECT_TRUE(x.sdiv(zero).isAllOnes());
  EXPECT_EQ(x.srem(zero), x);
}

TEST(BitVector, SignedDivision) {
  auto sd = [](int a, int b) {
    return BitVector::fromInt(8, a).sdiv(BitVector::fromInt(8, b)).toInt64();
  };
  auto sr = [](int a, int b) {
    return BitVector::fromInt(8, a).srem(BitVector::fromInt(8, b)).toInt64();
  };
  EXPECT_EQ(sd(7, 2), 3);
  EXPECT_EQ(sd(-7, 2), -3);   // truncating division
  EXPECT_EQ(sd(7, -2), -3);
  EXPECT_EQ(sd(-7, -2), 3);
  EXPECT_EQ(sr(-7, 2), -1);   // remainder takes dividend's sign
  EXPECT_EQ(sr(7, -2), 1);
}

TEST(BitVector, Shifts) {
  BitVector v(8, 0b10010110);
  EXPECT_EQ(v.shl(2).toUint64(), 0b01011000u);
  EXPECT_EQ(v.lshr(2).toUint64(), 0b00100101u);
  EXPECT_EQ(v.ashr(2).toUint64(), 0b11100101u);
  EXPECT_EQ(BitVector(8, 0b00010110).ashr(2).toUint64(), 0b00000101u);
  EXPECT_TRUE(v.shl(8).isZero());
  EXPECT_TRUE(v.lshr(8).isZero());
  EXPECT_TRUE(v.ashr(8).isAllOnes());
  EXPECT_TRUE(v.ashr(200).isAllOnes());
}

TEST(BitVector, Comparisons) {
  BitVector a(8, 0x80), b(8, 0x7F);
  EXPECT_TRUE(b.ult(a));
  EXPECT_TRUE(a.slt(b));  // -128 < 127
  EXPECT_TRUE(a.sle(a));
  EXPECT_TRUE(a.ule(a));
  EXPECT_FALSE(a.ult(a));
  EXPECT_THROW(a.ult(BitVector(16, 0)), std::invalid_argument);
}

TEST(BitVector, EqualityRequiresSameWidth) {
  EXPECT_NE(BitVector(8, 5), BitVector(16, 5));
  EXPECT_EQ(BitVector(8, 5), BitVector(8, 5));
}

TEST(BitVector, Reductions) {
  EXPECT_TRUE(BitVector::allOnes(9).reduceAnd());
  EXPECT_FALSE(BitVector(9, 0xFF).reduceAnd());
  EXPECT_TRUE(BitVector(9, 1).reduceOr());
  EXPECT_FALSE(BitVector(9, 0).reduceOr());
  EXPECT_TRUE(BitVector(9, 0b111).reduceXor());
  EXPECT_FALSE(BitVector(9, 0b11).reduceXor());
}

TEST(BitVector, HashConsistentWithEquality) {
  BitVector a(70, 1234), b(70, 1234);
  EXPECT_EQ(a.hash(), b.hash());
}

// --- property sweep: cross-check against native arithmetic at width 1..64 ---

class BitVectorPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorPropertyTest, MatchesNativeArithmetic) {
  const unsigned width = GetParam();
  const std::uint64_t mask =
      width == 64 ? ~0ull : ((1ull << width) - 1);
  std::mt19937_64 rng(width * 7919u + 13);
  for (int iter = 0; iter < 400; ++iter) {
    std::uint64_t xa = rng() & mask;
    std::uint64_t xb = rng() & mask;
    BitVector a(width, xa), b(width, xb);

    EXPECT_EQ(a.add(b).toUint64(), (xa + xb) & mask);
    EXPECT_EQ(a.sub(b).toUint64(), (xa - xb) & mask);
    EXPECT_EQ(a.mul(b).toUint64(), (xa * xb) & mask);
    if (xb != 0) {
      EXPECT_EQ(a.udiv(b).toUint64(), (xa / xb) & mask);
      EXPECT_EQ(a.urem(b).toUint64(), (xa % xb) & mask);
    }
    EXPECT_EQ(a.and_(b).toUint64(), xa & xb);
    EXPECT_EQ(a.or_(b).toUint64(), xa | xb);
    EXPECT_EQ(a.xor_(b).toUint64(), xa ^ xb);
    EXPECT_EQ(a.not_().toUint64(), ~xa & mask);
    EXPECT_EQ(a.neg().toUint64(), (~xa + 1) & mask);

    unsigned sh = unsigned(rng() % (width + 1));
    EXPECT_EQ(a.shl(sh).toUint64(), sh >= width ? 0 : (xa << sh) & mask);
    EXPECT_EQ(a.lshr(sh).toUint64(), sh >= width ? 0 : xa >> sh);

    EXPECT_EQ(a.ult(b), xa < xb);
    EXPECT_EQ(a.ule(b), xa <= xb);
    std::int64_t sa = BitVector(width, xa).toInt64();
    std::int64_t sb = BitVector(width, xb).toInt64();
    EXPECT_EQ(a.slt(b), sa < sb);
    EXPECT_EQ(a.sle(b), sa <= sb);

    // Round trips.
    EXPECT_EQ(BitVector::fromString(width, a.toHexString()), a);
    EXPECT_EQ(BitVector::fromString(width, a.toBinaryString()), a);
    EXPECT_EQ(BitVector::fromString(width, a.toUnsignedDecimalString()), a);

    // slice/concat inverse: splitting at k and re-concatenating is identity.
    if (width >= 2) {
      unsigned k = 1 + unsigned(rng() % (width - 1));
      BitVector hi = a.slice(width - 1, k);
      BitVector lo = a.slice(k - 1, 0);
      EXPECT_EQ(hi.concat(lo), a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorPropertyTest,
                         ::testing::Values(1u, 3u, 8u, 13u, 16u, 31u, 32u,
                                           33u, 48u, 63u, 64u));

// --- wide-width properties: algebraic identities at >64 bits ----------------

class BitVectorWideTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorWideTest, AlgebraicIdentities) {
  const unsigned width = GetParam();
  std::mt19937_64 rng(width);
  auto randomBv = [&] {
    BitVector v(width);
    for (unsigned i = 0; i < width; i += 64) {
      unsigned hi = std::min(i + 63, width - 1);
      v.insertSlice(hi, i, BitVector(hi - i + 1, rng()));
    }
    return v;
  };
  for (int iter = 0; iter < 60; ++iter) {
    BitVector a = randomBv(), b = randomBv();
    EXPECT_EQ(a.add(b), b.add(a));
    EXPECT_EQ(a.add(b).sub(b), a);
    EXPECT_EQ(a.sub(b).add(b), a);
    EXPECT_EQ(a.xor_(b).xor_(b), a);
    EXPECT_EQ(a.not_().not_(), a);
    EXPECT_EQ(a.neg().neg(), a);
    EXPECT_EQ(a.add(a), a.shl(1));
    EXPECT_EQ(a.mul(b), b.mul(a));
    EXPECT_TRUE(a.sub(a).isZero());
    // Division identity: a = (a/b)*b + a%b.
    if (!b.isZero()) {
      EXPECT_EQ(a.udiv(b).mul(b).add(a.urem(b)), a);
    }
    unsigned sh = unsigned(rng() % width);
    EXPECT_EQ(a.shl(sh).lshr(sh).shl(sh), a.shl(sh));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWideTest,
                         ::testing::Values(65u, 100u, 128u, 129u, 256u, 300u));

}  // namespace
}  // namespace isdl
