// The one ≤64-bit definition of the RTL operators: their bit-true semantics
// on (value, width) pairs of at most 64 bits. XSIM's micro-op engine
// (sim/uop.cpp) and the gate-level simulator (synth/gatesim.cpp) compile this
// header in, and the compiled-code simulator generator (sim/codegen.cpp)
// embeds its text verbatim into every generated source. It must therefore
// stay self-contained C++17 over standard headers only: no isdl includes, no
// C++20 library features.
//
// A Val keeps the bits above its width clear. Every function reproduces the
// arbitrary-width reference — rtl::applyBinOp / BitVector, which XSIM's
// interpreter keeps using so that it stays the independent oracle — bit for
// bit:
//   * x / 0 yields all ones, x % 0 yields x;
//   * signed division divides magnitudes, so INT_MIN / -1 wraps to INT_MIN;
//   * shift amounts (of any width) saturate at the operand width;
//   * float operators round-trip through IEEE-754 bits of width 32 or 64;
//   * float -> int truncates toward zero, maps NaN to 0 and saturates.
// tests/narrow_alu_test.cpp pins the equivalence.
//
// The operator enums live here, with their semantics; rtl/ir.h re-exports
// them, so the ordinals a code generator emits are the ones this header
// dispatches on.

#ifndef ISDL_RTL_NARROW_ALU_H
#define ISDL_RTL_NARROW_ALU_H

#include <cmath>
#include <cstdint>
#include <cstring>

// A call with a constant operator, as in generated code, only runs at
// native speed once the operator switch folds away, so the two dispatchers
// are always inlined. The gate-level simulator's evaluation loop uses the
// same macro.
#ifndef ISDL_ALWAYS_INLINE
#if defined(__GNUC__)
#define ISDL_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ISDL_ALWAYS_INLINE inline
#endif
#endif

namespace isdl::narrow {

enum class UnOp {
  LogNot,   ///< !x : 1-bit, true iff x == 0
  BitNot,   ///< ~x
  Neg,      ///< -x (two's complement)
  RedAnd,   ///< &x  (1-bit reduction)
  RedOr,    ///< |x
  RedXor,   ///< ^x
};

enum class BinOp {
  Add, Sub, Mul, UDiv, SDiv, URem, SRem,
  And, Or, Xor,
  Shl, LShr, AShr,                  // rhs is the shift amount (any width)
  Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe, SGt, SGe,  // 1-bit results
  LogAnd, LogOr,                    // 1-bit operands and result
  FAdd, FSub, FMul, FDiv,           // IEEE-754: width 32 or 64
  FEq, FLt, FLe,                    // 1-bit results
};

/// A value of `w` bits (1 <= w <= 64) held in the low bits of `v`.
struct Val {
  std::uint64_t v = 0;
  std::uint32_t w = 0;
};

inline std::uint64_t maskOf(std::uint32_t w) {
  return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
}

inline std::int64_t signedOf(std::uint64_t v, std::uint32_t w) {
  if (w >= 64) return std::int64_t(v);
  return std::int64_t(v << (64 - w)) >> (64 - w);
}

inline Val boolVal(bool b) { return {b ? 1u : 0u, 1}; }

/// The IEEE-754 number a 32- or 64-bit value encodes.
inline double toDouble(Val a) {
  if (a.w == 32) {
    std::uint32_t u = std::uint32_t(a.v);
    float f;
    std::memcpy(&f, &u, sizeof f);
    return f;
  }
  double d;
  std::memcpy(&d, &a.v, sizeof d);
  return d;
}

/// The IEEE-754 encoding of `d` at width 32 or 64.
inline Val fromDouble(double d, std::uint32_t w) {
  if (w == 32) {
    float f = float(d);
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return {u, 32};
  }
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return {u, w};
}

ISDL_ALWAYS_INLINE Val unOp(UnOp op, Val a) {
  const std::uint64_t m = maskOf(a.w);
  switch (op) {
    case UnOp::LogNot: return boolVal(a.v == 0);
    case UnOp::BitNot: return {~a.v & m, a.w};
    case UnOp::Neg: return {(0 - a.v) & m, a.w};
    case UnOp::RedAnd: return boolVal(a.v == m);
    case UnOp::RedOr: return boolVal(a.v != 0);
    case UnOp::RedXor: {
      std::uint64_t x = a.v;
      for (unsigned s = 32; s > 0; s >>= 1) x ^= x >> s;
      return {x & 1u, 1};
    }
  }
  return {};  // unreachable: the switch covers every operator
}

ISDL_ALWAYS_INLINE Val binOp(BinOp op, Val a, Val b) {
  const std::uint64_t m = maskOf(a.w);
  switch (op) {
    case BinOp::Add: return {(a.v + b.v) & m, a.w};
    case BinOp::Sub: return {(a.v - b.v) & m, a.w};
    case BinOp::Mul: return {(a.v * b.v) & m, a.w};
    case BinOp::UDiv: return {b.v ? a.v / b.v : m, a.w};
    case BinOp::URem: return {b.v ? a.v % b.v : a.v, a.w};
    case BinOp::SDiv: {
      if (!b.v) return {m, a.w};
      // Magnitude division like BitVector::sdiv (also dodges the
      // INT64_MIN / -1 trap of native signed division at width 64).
      bool negA = signedOf(a.v, a.w) < 0, negB = signedOf(b.v, b.w) < 0;
      std::uint64_t q = ((negA ? 0 - a.v : a.v) & m) /
                        ((negB ? 0 - b.v : b.v) & m);
      return {(negA != negB ? 0 - q : q) & m, a.w};
    }
    case BinOp::SRem: {
      if (!b.v) return {a.v, a.w};
      bool negA = signedOf(a.v, a.w) < 0, negB = signedOf(b.v, b.w) < 0;
      std::uint64_t r = ((negA ? 0 - a.v : a.v) & m) %
                        ((negB ? 0 - b.v : b.v) & m);
      return {(negA ? 0 - r : r) & m, a.w};  // takes the dividend's sign
    }
    case BinOp::And: return {a.v & b.v, a.w};
    case BinOp::Or: return {a.v | b.v, a.w};
    case BinOp::Xor: return {a.v ^ b.v, a.w};
    case BinOp::Shl: {
      std::uint64_t amt = b.v > a.w ? a.w : b.v;
      return {amt >= a.w ? 0 : (a.v << amt) & m, a.w};
    }
    case BinOp::LShr: {
      std::uint64_t amt = b.v > a.w ? a.w : b.v;
      return {amt >= a.w ? 0 : a.v >> amt, a.w};
    }
    case BinOp::AShr: {
      std::uint64_t amt = b.v > a.w ? a.w : b.v;
      std::int64_t s = signedOf(a.v, a.w);
      if (amt >= a.w) return {s < 0 ? m : 0, a.w};
      return {std::uint64_t(s >> amt) & m, a.w};
    }
    case BinOp::Eq: return boolVal(a.v == b.v);
    case BinOp::Ne: return boolVal(a.v != b.v);
    case BinOp::ULt: return boolVal(a.v < b.v);
    case BinOp::ULe: return boolVal(a.v <= b.v);
    case BinOp::UGt: return boolVal(a.v > b.v);
    case BinOp::UGe: return boolVal(a.v >= b.v);
    case BinOp::SLt: return boolVal(signedOf(a.v, a.w) < signedOf(b.v, b.w));
    case BinOp::SLe: return boolVal(signedOf(a.v, a.w) <= signedOf(b.v, b.w));
    case BinOp::SGt: return boolVal(signedOf(a.v, a.w) > signedOf(b.v, b.w));
    case BinOp::SGe: return boolVal(signedOf(a.v, a.w) >= signedOf(b.v, b.w));
    case BinOp::LogAnd: return boolVal(a.v && b.v);
    case BinOp::LogOr: return boolVal(a.v || b.v);
    case BinOp::FAdd: return fromDouble(toDouble(a) + toDouble(b), a.w);
    case BinOp::FSub: return fromDouble(toDouble(a) - toDouble(b), a.w);
    case BinOp::FMul: return fromDouble(toDouble(a) * toDouble(b), a.w);
    case BinOp::FDiv: return fromDouble(toDouble(a) / toDouble(b), a.w);
    case BinOp::FEq: return boolVal(toDouble(a) == toDouble(b));
    case BinOp::FLt: return boolVal(toDouble(a) < toDouble(b));
    case BinOp::FLe: return boolVal(toDouble(a) <= toDouble(b));
  }
  return {};  // unreachable: the switch covers every operator
}

/// a[hi:lo].
inline Val slice(Val a, std::uint32_t hi, std::uint32_t lo) {
  return {(a.v >> lo) & maskOf(hi - lo + 1), hi - lo + 1};
}

/// `base` with bits [hi:lo] replaced by the low hi-lo+1 bits of `part`.
inline std::uint64_t withSlice(std::uint64_t base, std::uint32_t hi,
                               std::uint32_t lo, std::uint64_t part) {
  const std::uint64_t m = maskOf(hi - lo + 1) << lo;
  return (base & ~m) | ((part << lo) & m);
}

/// {hi, lo}: `hi` is most significant; the widths sum to at most 64.
inline Val concat(Val hi, Val lo) {
  return {(hi.v << lo.w) | lo.v, hi.w + lo.w};
}

inline Val zext(Val a, std::uint32_t w) { return {a.v, w}; }

inline Val sext(Val a, std::uint32_t w) {
  return {std::uint64_t(signedOf(a.v, a.w)) & maskOf(w), w};
}

inline Val trunc(Val a, std::uint32_t w) { return {a.v & maskOf(w), w}; }

/// Signed integer -> float of width 32 or 64 (through double, like the
/// reference).
inline Val itof(Val a, std::uint32_t w) {
  return fromDouble(double(signedOf(a.v, a.w)), w);
}

/// Float -> signed integer of width w, truncating toward zero; NaN gives 0
/// and out-of-range values saturate (like common DSP converters). The bound
/// 2^(w-1) is exact in a double, whereas 2^(w-1) - 1 rounds up to it once
/// w > 54, so the saturation tests compare against 2^(w-1).
inline Val ftoi(Val a, std::uint32_t w) {
  const double d = toDouble(a);
  const double lim = std::ldexp(1.0, int(w) - 1);
  const std::uint64_t max = maskOf(w) >> 1;
  std::uint64_t r;
  if (std::isnan(d))
    r = 0;
  else if (d >= lim)
    r = max;
  else if (d <= -lim)
    r = ~max;
  else
    r = std::uint64_t(std::int64_t(d));
  return {r & maskOf(w), w};
}

/// Carry out of a + b (1 bit).
inline Val carry(Val a, Val b) {
  const std::uint64_t s = a.v + b.v;
  return boolVal(a.w >= 64 ? s < a.v : ((s >> a.w) & 1u) != 0);
}

/// Signed overflow of a + b (1 bit).
inline Val overflow(Val a, Val b) {
  bool aNeg = signedOf(a.v, a.w) < 0, bNeg = signedOf(b.v, b.w) < 0;
  bool rNeg = signedOf((a.v + b.v) & maskOf(a.w), a.w) < 0;
  return boolVal(aNeg == bNeg && rNeg != aNeg);
}

/// Borrow out of a - b (1 bit).
inline Val borrow(Val a, Val b) { return boolVal(a.v < b.v); }

}  // namespace isdl::narrow

#endif  // ISDL_RTL_NARROW_ALU_H
