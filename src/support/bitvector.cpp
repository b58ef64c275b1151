#include "support/bitvector.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace isdl {

// The special members, allocate/release/clearUnusedBits and topWordMask are
// defined inline in the header: they dominate the simulator's hot paths.

BitVector BitVector::fromString(unsigned width, std::string_view text) {
  if (text.empty()) throw std::invalid_argument("empty BitVector literal");
  bool negative = false;
  if (text.front() == '-') {
    negative = true;
    text.remove_prefix(1);
    if (text.empty()) throw std::invalid_argument("lone '-' literal");
  }
  BitVector result(width);
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    unsigned bitPos = 0;
    for (auto it = text.rbegin(); it != text.rend(); ++it) {
      char c = *it;
      if (c == '_') continue;
      unsigned digit;
      if (c >= '0' && c <= '9') digit = unsigned(c - '0');
      else if (c >= 'a' && c <= 'f') digit = unsigned(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') digit = unsigned(c - 'A') + 10;
      else throw std::invalid_argument("bad hex digit in BitVector literal");
      for (unsigned b = 0; b < 4; ++b) {
        if (bitPos + b < width && ((digit >> b) & 1u))
          result.setBit(bitPos + b, true);
      }
      bitPos += 4;
    }
  } else if (text.size() > 2 && text[0] == '0' &&
             (text[1] == 'b' || text[1] == 'B')) {
    text.remove_prefix(2);
    unsigned bitPos = 0;
    for (auto it = text.rbegin(); it != text.rend(); ++it) {
      char c = *it;
      if (c == '_') continue;
      if (c != '0' && c != '1')
        throw std::invalid_argument("bad binary digit in BitVector literal");
      if (bitPos < width && c == '1') result.setBit(bitPos, true);
      ++bitPos;
    }
  } else {
    // Decimal: multiply-accumulate in the full width.
    BitVector ten(width, 10);
    for (char c : text) {
      if (c == '_') continue;
      if (c < '0' || c > '9')
        throw std::invalid_argument("bad decimal digit in BitVector literal");
      result = result.mul(ten).add(BitVector(width, std::uint64_t(c - '0')));
    }
  }
  if (negative) result = result.neg();
  return result;
}

BitVector BitVector::fromInt(unsigned width, std::int64_t value) {
  BitVector r(width);
  std::uint64_t uv = static_cast<std::uint64_t>(value);
  unsigned n = r.nwords_;
  std::uint64_t fill = value < 0 ? ~std::uint64_t{0} : 0;
  std::uint64_t* w = r.words();
  w[0] = uv;
  for (unsigned i = 1; i < n; ++i) w[i] = fill;
  r.clearUnusedBits();
  return r;
}

BitVector BitVector::allOnes(unsigned width) {
  BitVector r(width);
  std::uint64_t* w = r.words();
  for (unsigned i = 0; i < r.nwords_; ++i) w[i] = ~std::uint64_t{0};
  r.clearUnusedBits();
  return r;
}

bool BitVector::bit(unsigned i) const {
  if (i >= width_) throw std::out_of_range("BitVector::bit index");
  return (words()[i / 64] >> (i % 64)) & 1u;
}

void BitVector::setBit(unsigned i, bool v) {
  if (i >= width_) throw std::out_of_range("BitVector::setBit index");
  std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (v)
    words()[i / 64] |= mask;
  else
    words()[i / 64] &= ~mask;
}

bool BitVector::isAllOnes() const noexcept {
  if (width_ == 0) return false;
  const std::uint64_t* w = words();
  for (unsigned i = 0; i + 1 < nwords_; ++i)
    if (w[i] != ~std::uint64_t{0}) return false;
  return w[nwords_ - 1] == topWordMask(width_);
}

std::int64_t BitVector::toInt64() const noexcept {
  if (width_ == 0) return 0;
  std::uint64_t low = words()[0];
  if (width_ >= 64) return static_cast<std::int64_t>(low);
  if ((low >> (width_ - 1)) & 1u) low |= ~((std::uint64_t{1} << width_) - 1);
  return static_cast<std::int64_t>(low);
}

std::string BitVector::toHexString() const {
  unsigned digits = (width_ + 3) / 4;
  std::string s = "0x";
  s.reserve(2 + digits);
  for (unsigned d = digits; d-- > 0;) {
    unsigned lo = d * 4;
    unsigned v = 0;
    for (unsigned b = 0; b < 4 && lo + b < width_; ++b)
      v |= unsigned(bit(lo + b)) << b;
    s += "0123456789abcdef"[v];
  }
  return s;
}

std::string BitVector::toBinaryString() const {
  std::string s = "0b";
  s.reserve(2 + width_);
  for (unsigned i = width_; i-- > 0;) s += bit(i) ? '1' : '0';
  return s;
}

std::string BitVector::toUnsignedDecimalString() const {
  if (isZero()) return "0";
  // Repeated division by 10 on a copy of the words.
  std::string digits;
  BitVector v(*this);
  std::uint64_t* w = v.words();
  auto nonZero = [&] {
    for (unsigned i = 0; i < v.nwords_; ++i)
      if (w[i]) return true;
    return false;
  };
  while (nonZero()) {
    unsigned __int128 rem = 0;
    for (unsigned i = v.nwords_; i-- > 0;) {
      unsigned __int128 cur = (rem << 64) | w[i];
      w[i] = static_cast<std::uint64_t>(cur / 10);
      rem = cur % 10;
    }
    digits += char('0' + int(rem));
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BitVector BitVector::zext(unsigned newWidth) const {
  if (newWidth < width_) throw std::invalid_argument("zext shrinks width");
  BitVector r(newWidth);
  std::copy(words(), words() + nwords_, r.words());
  return r;
}

BitVector BitVector::sext(unsigned newWidth) const {
  if (newWidth < width_) throw std::invalid_argument("sext shrinks width");
  BitVector r = zext(newWidth);
  if (isNegative()) {
    for (unsigned i = width_; i < newWidth; ++i) r.setBit(i, true);
  }
  return r;
}

BitVector BitVector::trunc(unsigned newWidth) const {
  if (newWidth > width_) throw std::invalid_argument("trunc grows width");
  BitVector r(newWidth);
  std::copy(words(), words() + r.nwords_, r.words());
  r.clearUnusedBits();
  return r;
}

BitVector BitVector::resize(unsigned newWidth) const {
  return newWidth >= width_ ? zext(newWidth) : trunc(newWidth);
}

BitVector BitVector::slice(unsigned hi, unsigned lo) const {
  if (hi < lo || hi >= width_)
    throw std::out_of_range("BitVector::slice range");
  unsigned w = hi - lo + 1;
  if (nwords_ == 1) return raw1(w, inline_[0] >> lo);
  BitVector r(w);
  // Word-at-a-time shift-out.
  const std::uint64_t* src = words();
  std::uint64_t* dst = r.words();
  unsigned wordShift = lo / 64;
  unsigned bitShift = lo % 64;
  for (unsigned i = 0; i < r.nwords_; ++i) {
    std::uint64_t low = src[i + wordShift] >> bitShift;
    std::uint64_t high = 0;
    if (bitShift != 0 && i + wordShift + 1 < nwords_)
      high = src[i + wordShift + 1] << (64 - bitShift);
    dst[i] = low | high;
  }
  r.clearUnusedBits();
  return r;
}

BitVector BitVector::withSlice(unsigned hi, unsigned lo,
                               const BitVector& v) const {
  BitVector r(*this);
  r.insertSlice(hi, lo, v);
  return r;
}

void BitVector::insertSlice(unsigned hi, unsigned lo, const BitVector& v) {
  if (hi < lo || hi >= width_)
    throw std::out_of_range("BitVector::insertSlice range");
  if (v.width_ != hi - lo + 1)
    throw std::invalid_argument("BitVector::insertSlice width mismatch");
  if (nwords_ == 1) {
    std::uint64_t field =
        v.width_ < 64 ? (std::uint64_t{1} << v.width_) - 1 : ~std::uint64_t{0};
    inline_[0] = (inline_[0] & ~(field << lo)) | (v.inline_[0] << lo);
    return;
  }
  // Word-at-a-time: source word i lands in destination word lo/64 + i and,
  // when lo is not word-aligned, spills its top bits into the next word.
  std::uint64_t* dst = words();
  const std::uint64_t* src = v.words();
  const unsigned shift = lo % 64;
  for (unsigned i = 0; i < v.nwords_; ++i) {
    const unsigned n = std::min(64u, v.width_ - 64 * i);
    const std::uint64_t field = n == 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << n) - 1;
    const unsigned d = lo / 64 + i;
    dst[d] = (dst[d] & ~(field << shift)) | (src[i] << shift);
    if (shift != 0 && shift + n > 64)
      dst[d + 1] = (dst[d + 1] & ~(field >> (64 - shift))) |
                   (src[i] >> (64 - shift));
  }
}

BitVector BitVector::concat(const BitVector& low) const {
  BitVector r(width_ + low.width_);
  for (unsigned i = 0; i < low.width_; ++i) r.setBit(i, low.bit(i));
  for (unsigned i = 0; i < width_; ++i) r.setBit(low.width_ + i, bit(i));
  return r;
}

void BitVector::requireSameWidth(const BitVector& rhs, const char* op) const {
  if (width_ != rhs.width_)
    throw std::invalid_argument(std::string("BitVector width mismatch in ") +
                                op);
}

BitVector BitVector::addSlow(const BitVector& rhs) const {
  return addWithCarry(rhs, false).sum;
}

BitVector::AddResult BitVector::addWithCarry(const BitVector& rhs,
                                             bool carryIn) const {
  requireSameWidth(rhs, "add");
  BitVector sum(width_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  std::uint64_t* s = sum.words();
  unsigned __int128 carry = carryIn ? 1 : 0;
  for (unsigned i = 0; i < nwords_; ++i) {
    unsigned __int128 t = (unsigned __int128)a[i] + b[i] + carry;
    s[i] = static_cast<std::uint64_t>(t);
    carry = t >> 64;
  }
  // Carry out of bit width-1.
  bool carryOut;
  unsigned msb = width_ - 1;
  if (width_ % 64 == 0) {
    carryOut = carry != 0;
  } else {
    carryOut = (s[msb / 64] >> (width_ % 64)) & 1u;
  }
  bool aNeg = isNegative();
  bool bNeg = rhs.isNegative();
  sum.clearUnusedBits();
  bool rNeg = sum.isNegative();
  bool overflow = (aNeg == bNeg) && (rNeg != aNeg);
  return {std::move(sum), carryOut, overflow};
}

BitVector BitVector::subSlow(const BitVector& rhs) const {
  requireSameWidth(rhs, "sub");
  return addWithCarry(rhs.not_(), true).sum;
}

BitVector BitVector::mulSlow(const BitVector& rhs) const {
  requireSameWidth(rhs, "mul");
  BitVector r(width_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  std::uint64_t* out = r.words();
  for (unsigned i = 0; i < nwords_; ++i) {
    if (a[i] == 0) continue;
    unsigned __int128 carry = 0;
    for (unsigned j = 0; i + j < nwords_; ++j) {
      unsigned __int128 t =
          (unsigned __int128)a[i] * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
  }
  r.clearUnusedBits();
  return r;
}

BitVector BitVector::udiv(const BitVector& rhs) const {
  requireSameWidth(rhs, "udiv");
  if (rhs.isZero()) return allOnes(width_);
  if (nwords_ == 1) return raw1(width_, inline_[0] / rhs.inline_[0]);
  // Schoolbook restoring division, bit at a time. Widths here are small
  // (architectural registers), so simplicity beats speed.
  BitVector quotient(width_);
  BitVector remainder(width_);
  for (unsigned i = width_; i-- > 0;) {
    remainder = remainder.shl(1);
    remainder.setBit(0, bit(i));
    if (!remainder.ult(rhs)) {
      remainder = remainder.sub(rhs);
      quotient.setBit(i, true);
    }
  }
  return quotient;
}

BitVector BitVector::urem(const BitVector& rhs) const {
  requireSameWidth(rhs, "urem");
  if (rhs.isZero()) return *this;
  if (nwords_ == 1) return raw1(width_, inline_[0] % rhs.inline_[0]);
  BitVector remainder(width_);
  for (unsigned i = width_; i-- > 0;) {
    remainder = remainder.shl(1);
    remainder.setBit(0, bit(i));
    if (!remainder.ult(rhs)) remainder = remainder.sub(rhs);
  }
  return remainder;
}

BitVector BitVector::sdiv(const BitVector& rhs) const {
  requireSameWidth(rhs, "sdiv");
  if (rhs.isZero()) return allOnes(width_);
  bool negA = isNegative(), negB = rhs.isNegative();
  BitVector a = negA ? neg() : *this;
  BitVector b = negB ? rhs.neg() : rhs;
  BitVector q = a.udiv(b);
  return (negA != negB) ? q.neg() : q;
}

BitVector BitVector::srem(const BitVector& rhs) const {
  requireSameWidth(rhs, "srem");
  if (rhs.isZero()) return *this;
  bool negA = isNegative(), negB = rhs.isNegative();
  BitVector a = negA ? neg() : *this;
  BitVector b = negB ? rhs.neg() : rhs;
  BitVector r = a.urem(b);
  return negA ? r.neg() : r;  // remainder takes the dividend's sign
}

BitVector BitVector::negSlow() const { return not_().add(BitVector(width_, 1)); }

BitVector BitVector::andSlow(const BitVector& rhs) const {
  requireSameWidth(rhs, "and");
  BitVector r(width_);
  for (unsigned i = 0; i < nwords_; ++i)
    r.words()[i] = words()[i] & rhs.words()[i];
  return r;
}

BitVector BitVector::orSlow(const BitVector& rhs) const {
  requireSameWidth(rhs, "or");
  BitVector r(width_);
  for (unsigned i = 0; i < nwords_; ++i)
    r.words()[i] = words()[i] | rhs.words()[i];
  return r;
}

BitVector BitVector::xorSlow(const BitVector& rhs) const {
  requireSameWidth(rhs, "xor");
  BitVector r(width_);
  for (unsigned i = 0; i < nwords_; ++i)
    r.words()[i] = words()[i] ^ rhs.words()[i];
  return r;
}

BitVector BitVector::notSlow() const {
  BitVector r(width_);
  for (unsigned i = 0; i < nwords_; ++i) r.words()[i] = ~words()[i];
  r.clearUnusedBits();
  return r;
}

BitVector BitVector::shl(unsigned amount) const {
  if (amount >= width_) return BitVector(width_);
  if (nwords_ == 1) return raw1(width_, inline_[0] << amount);
  BitVector r(width_);
  unsigned wordShift = amount / 64;
  unsigned bitShift = amount % 64;
  const std::uint64_t* src = words();
  std::uint64_t* dst = r.words();
  for (unsigned i = nwords_; i-- > 0;) {
    std::uint64_t v = 0;
    if (i >= wordShift) {
      v = src[i - wordShift] << bitShift;
      if (bitShift != 0 && i > wordShift)
        v |= src[i - wordShift - 1] >> (64 - bitShift);
    }
    dst[i] = v;
  }
  r.clearUnusedBits();
  return r;
}

BitVector BitVector::lshr(unsigned amount) const {
  if (amount >= width_) return BitVector(width_);
  if (nwords_ == 1) return raw1(width_, inline_[0] >> amount);
  BitVector r(width_);
  unsigned wordShift = amount / 64;
  unsigned bitShift = amount % 64;
  const std::uint64_t* src = words();
  std::uint64_t* dst = r.words();
  for (unsigned i = 0; i < nwords_; ++i) {
    std::uint64_t v = 0;
    if (i + wordShift < nwords_) {
      v = src[i + wordShift] >> bitShift;
      if (bitShift != 0 && i + wordShift + 1 < nwords_)
        v |= src[i + wordShift + 1] << (64 - bitShift);
    }
    dst[i] = v;
  }
  return r;
}

BitVector BitVector::ashr(unsigned amount) const {
  bool neg = isNegative();
  if (amount >= width_)
    return neg ? allOnes(width_) : BitVector(width_);
  if (nwords_ == 1)
    return raw1(width_,
                std::uint64_t(toInt64() >> amount));  // C++20: arithmetic >>
  BitVector r = lshr(amount);
  if (neg) {
    for (unsigned i = width_ - amount; i < width_; ++i) r.setBit(i, true);
  }
  return r;
}

bool BitVector::ultSlow(const BitVector& rhs) const {
  requireSameWidth(rhs, "ult");
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  for (unsigned i = nwords_; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

bool BitVector::ule(const BitVector& rhs) const {
  return !rhs.ult(*this);
}

bool BitVector::slt(const BitVector& rhs) const {
  requireSameWidth(rhs, "slt");
  if (nwords_ == 1) return toInt64() < rhs.toInt64();
  bool aNeg = isNegative(), bNeg = rhs.isNegative();
  if (aNeg != bNeg) return aNeg;
  return ult(rhs);
}

bool BitVector::sle(const BitVector& rhs) const { return !rhs.slt(*this); }

unsigned BitVector::popcount() const noexcept {
  unsigned n = 0;
  const std::uint64_t* w = words();
  for (unsigned i = 0; i < nwords_; ++i) n += unsigned(std::popcount(w[i]));
  return n;
}

std::size_t BitVector::hash() const noexcept {
  std::size_t h = std::hash<unsigned>{}(width_);
  const std::uint64_t* w = words();
  for (unsigned i = 0; i < nwords_; ++i) {
    h ^= std::hash<std::uint64_t>{}(w[i]) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

}  // namespace isdl
