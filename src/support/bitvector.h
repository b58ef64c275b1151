// BitVector: arbitrary-width, bit-true two's-complement integer value.
//
// This is the value type underlying every architectural quantity in the
// toolchain: storage elements, instruction words, RTL temporaries, and
// netlist signals. All operations are defined modulo 2^width, which is what
// makes the generated simulators "bit-true by construction" (paper section 3).
//
// Widths are arbitrary (not capped at 64): VLIW instruction words routinely
// exceed 64 bits (SPAM uses a 128-bit word). Values up to 128 bits are stored
// inline; wider values spill to the heap.

#ifndef ISDL_SUPPORT_BITVECTOR_H
#define ISDL_SUPPORT_BITVECTOR_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace isdl {

class BitVector {
 public:
  /// Width-0 vector. Valid only as a "no value" placeholder; most operations
  /// require width > 0.
  BitVector() noexcept : width_(0), nwords_(0) { inline_.fill(0); }

  // The special members are defined inline: storage elements, scratch
  // registers and pending-write queue entries churn through them on every
  // simulated cycle, so the call overhead is measurable.

  /// Zero-valued vector of the given width.
  explicit BitVector(unsigned width) {
    if (width == 0) throw std::invalid_argument("BitVector width must be > 0");
    allocate(width);
  }

  /// Vector of `width` bits holding `value` (truncated modulo 2^width).
  BitVector(unsigned width, std::uint64_t value) : BitVector(width) {
    words()[0] = value;
    clearUnusedBits();
  }

  BitVector(const BitVector& other) {
    allocate(other.width_ == 0 ? 0 : other.width_);
    width_ = other.width_;
    nwords_ = other.nwords_;
    if (width_ == 0) return;
    if (onHeap()) {
      // allocate() above used other.width_ so the buffer is correctly sized.
      std::copy(other.words(), other.words() + nwords_, heap_);
    } else {
      inline_ = other.inline_;
    }
  }

  BitVector(BitVector&& other) noexcept
      : width_(other.width_), nwords_(other.nwords_) {
    if (onHeap()) {
      heap_ = other.heap_;
      other.width_ = 0;
      other.nwords_ = 0;
      other.inline_.fill(0);
    } else {
      inline_ = other.inline_;
    }
  }

  BitVector& operator=(const BitVector& other) {
    if (this == &other) return *this;
    BitVector tmp(other);
    *this = std::move(tmp);
    return *this;
  }

  BitVector& operator=(BitVector&& other) noexcept {
    if (this == &other) return *this;
    release();
    width_ = other.width_;
    nwords_ = other.nwords_;
    if (onHeap()) {
      heap_ = other.heap_;
      other.width_ = 0;
      other.nwords_ = 0;
      other.inline_.fill(0);
    } else {
      inline_ = other.inline_;
    }
    return *this;
  }

  ~BitVector() { release(); }

  /// Parses "0x..", "0b..", or decimal digits into a vector of the given
  /// width. Throws std::invalid_argument on malformed input or overflow of
  /// the requested width (decimal only; hex/binary truncate like hardware).
  static BitVector fromString(unsigned width, std::string_view text);

  /// Signed construction: sign-extends `value` then truncates to `width`.
  static BitVector fromInt(unsigned width, std::int64_t value);

  /// All-ones vector of the given width.
  static BitVector allOnes(unsigned width);

  /// Vector of `width` bits read from ceil(width/64) little-endian words
  /// (bits above `width` in the top word are dropped).
  static BitVector fromWords(unsigned width, const std::uint64_t* src) {
    BitVector r(width);
    std::copy(src, src + r.nwords_, r.words());
    r.clearUnusedBits();
    return r;
  }
  /// Bits [64i + 63 : 64i]; requires i < ceil(width/64).
  std::uint64_t word(unsigned i) const noexcept { return words()[i]; }
  /// Sets bits [64i + 63 : 64i] to `v`; requires i < ceil(width/64). Bits of
  /// `v` above the width (in the top word) are dropped.
  void setWord(unsigned i, std::uint64_t v) noexcept {
    words()[i] = i + 1 == nwords_ ? v & topWordMask(width_) : v;
  }
  /// ceil(width/64): the number of words word() and setWord() address.
  unsigned numWords() const noexcept { return nwords_; }

  unsigned width() const noexcept { return width_; }
  bool valid() const noexcept { return width_ != 0; }

  bool bit(unsigned i) const;
  void setBit(unsigned i, bool v);

  bool isZero() const noexcept;
  bool isAllOnes() const noexcept;
  /// True if the sign bit (msb) is set.
  bool isNegative() const { return bit(width_ - 1); }

  /// Low 64 bits (zero-extended if narrower).
  std::uint64_t toUint64() const noexcept;
  /// Low 64 bits with the value sign-extended from `width` into 64 bits.
  std::int64_t toInt64() const noexcept;

  std::string toHexString() const;     // e.g. "0x0f3a" (width/4 digits, ceil)
  std::string toBinaryString() const;  // e.g. "0b0101", width digits
  std::string toUnsignedDecimalString() const;

  // --- width changes -------------------------------------------------------
  BitVector zext(unsigned newWidth) const;  ///< zero-extend (newWidth >= width)
  BitVector sext(unsigned newWidth) const;  ///< sign-extend (newWidth >= width)
  BitVector trunc(unsigned newWidth) const; ///< truncate  (newWidth <= width)
  /// zext or trunc as appropriate.
  BitVector resize(unsigned newWidth) const;

  // --- bit rearrangement ---------------------------------------------------
  /// Bits [hi..lo] inclusive as a (hi-lo+1)-wide vector.
  BitVector slice(unsigned hi, unsigned lo) const;
  /// Copy of *this with bits [hi..lo] replaced by `v` (v.width == hi-lo+1).
  BitVector withSlice(unsigned hi, unsigned lo, const BitVector& v) const;
  /// In-place variant of withSlice.
  void insertSlice(unsigned hi, unsigned lo, const BitVector& v);
  /// {*this, low}: *this occupies the high bits.
  BitVector concat(const BitVector& low) const;

  // --- arithmetic (operands must have equal widths; result same width) ------
  BitVector add(const BitVector& rhs) const;
  BitVector sub(const BitVector& rhs) const;
  BitVector mul(const BitVector& rhs) const;
  BitVector udiv(const BitVector& rhs) const;  ///< x/0 yields all-ones
  BitVector urem(const BitVector& rhs) const;  ///< x%0 yields x
  BitVector sdiv(const BitVector& rhs) const;
  BitVector srem(const BitVector& rhs) const;
  BitVector neg() const;

  struct AddResult;
  /// Add with carry-in; reports carry-out and signed overflow — used by
  /// operation side-effects that set condition codes.
  AddResult addWithCarry(const BitVector& rhs, bool carryIn) const;

  // --- bitwise --------------------------------------------------------------
  BitVector and_(const BitVector& rhs) const;
  BitVector or_(const BitVector& rhs) const;
  BitVector xor_(const BitVector& rhs) const;
  BitVector not_() const;

  // --- shifts (shift amount is a plain integer; result keeps width) ---------
  BitVector shl(unsigned amount) const;
  BitVector lshr(unsigned amount) const;
  BitVector ashr(unsigned amount) const;

  // --- comparisons -----------------------------------------------------------
  bool operator==(const BitVector& rhs) const noexcept;
  bool operator!=(const BitVector& rhs) const noexcept { return !(*this == rhs); }
  bool ult(const BitVector& rhs) const;
  bool ule(const BitVector& rhs) const;
  bool slt(const BitVector& rhs) const;
  bool sle(const BitVector& rhs) const;

  // --- reductions -------------------------------------------------------------
  unsigned popcount() const noexcept;
  bool reduceAnd() const noexcept { return isAllOnes(); }
  bool reduceOr() const noexcept { return !isZero(); }
  bool reduceXor() const noexcept { return popcount() & 1u; }

  /// Stable hash suitable for unordered containers.
  std::size_t hash() const noexcept;

 private:
  static constexpr unsigned kInlineWords = 2;  // 128 bits inline

  unsigned width_;
  unsigned nwords_;
  union {
    std::array<std::uint64_t, kInlineWords> inline_;
    std::uint64_t* heap_;
  };

  bool onHeap() const noexcept { return nwords_ > kInlineWords; }
  std::uint64_t* words() noexcept { return onHeap() ? heap_ : inline_.data(); }
  const std::uint64_t* words() const noexcept {
    return onHeap() ? heap_ : inline_.data();
  }
  void allocate(unsigned width) {
    width_ = width;
    nwords_ = wordsFor(width);
    if (onHeap()) {
      heap_ = new std::uint64_t[nwords_]();
    } else {
      inline_.fill(0);
    }
  }
  void release() noexcept {
    if (onHeap()) delete[] heap_;
  }
  void clearUnusedBits() noexcept {
    if (width_ == 0 || nwords_ == 0) return;
    words()[nwords_ - 1] &= topWordMask(width_);
  }
  static std::uint64_t topWordMask(unsigned width) noexcept {
    unsigned rem = width % 64;
    return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
  }
  static unsigned wordsFor(unsigned width) { return (width + 63) / 64; }
  void requireSameWidth(const BitVector& rhs, const char* op) const;

  /// Single-word (width <= 64) value carrying `raw` truncated modulo
  /// 2^width. The constructor of the inline fast paths below.
  static BitVector raw1(unsigned width, std::uint64_t raw) noexcept {
    BitVector r;
    r.width_ = width;
    r.nwords_ = 1;
    r.inline_[0] = width < 64 ? raw & ((std::uint64_t{1} << width) - 1) : raw;
    return r;
  }

  // General multi-word paths (bitvector.cpp), taken when either operand
  // spans more than one 64-bit word.
  BitVector addSlow(const BitVector& rhs) const;
  BitVector subSlow(const BitVector& rhs) const;
  BitVector mulSlow(const BitVector& rhs) const;
  BitVector andSlow(const BitVector& rhs) const;
  BitVector orSlow(const BitVector& rhs) const;
  BitVector xorSlow(const BitVector& rhs) const;
  BitVector notSlow() const;
  BitVector negSlow() const;
  bool ultSlow(const BitVector& rhs) const;
};

// --- inline <=64-bit fast paths ----------------------------------------------
// Architectural values are overwhelmingly single-word (registers, flags,
// addresses); the simulator's micro-op dispatch loop funnels essentially
// every operation through these entry points, so they must not pay the
// multi-word machinery. Operands of mismatched widths fall through to the
// slow path, which throws the usual width-mismatch error.

inline bool BitVector::isZero() const noexcept {
  if (nwords_ == 1) return inline_[0] == 0;
  const std::uint64_t* w = words();
  for (unsigned i = 0; i < nwords_; ++i)
    if (w[i]) return false;
  return true;
}

inline std::uint64_t BitVector::toUint64() const noexcept {
  return nwords_ == 0 ? 0 : words()[0];
}

inline bool BitVector::operator==(const BitVector& rhs) const noexcept {
  if (width_ != rhs.width_) return false;
  if (nwords_ == 1) return inline_[0] == rhs.inline_[0];
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  for (unsigned i = 0; i < nwords_; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

inline bool BitVector::ult(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_) return inline_[0] < rhs.inline_[0];
  return ultSlow(rhs);
}

inline BitVector BitVector::add(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_)
    return raw1(width_, inline_[0] + rhs.inline_[0]);
  return addSlow(rhs);
}

inline BitVector BitVector::sub(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_)
    return raw1(width_, inline_[0] - rhs.inline_[0]);
  return subSlow(rhs);
}

inline BitVector BitVector::mul(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_)
    return raw1(width_, inline_[0] * rhs.inline_[0]);
  return mulSlow(rhs);
}

inline BitVector BitVector::and_(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_)
    return raw1(width_, inline_[0] & rhs.inline_[0]);
  return andSlow(rhs);
}

inline BitVector BitVector::or_(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_)
    return raw1(width_, inline_[0] | rhs.inline_[0]);
  return orSlow(rhs);
}

inline BitVector BitVector::xor_(const BitVector& rhs) const {
  if (nwords_ == 1 && rhs.width_ == width_)
    return raw1(width_, inline_[0] ^ rhs.inline_[0]);
  return xorSlow(rhs);
}

inline BitVector BitVector::not_() const {
  if (nwords_ == 1) return raw1(width_, ~inline_[0]);
  return notSlow();
}

inline BitVector BitVector::neg() const {
  if (nwords_ == 1) return raw1(width_, 0 - inline_[0]);
  return negSlow();
}

struct BitVector::AddResult {
  BitVector sum;
  bool carryOut;
  bool overflow;
};

}  // namespace isdl

template <>
struct std::hash<isdl::BitVector> {
  std::size_t operator()(const isdl::BitVector& v) const noexcept {
    return v.hash();
  }
};

#endif  // ISDL_SUPPORT_BITVECTOR_H
