// ASCII character classes and digit runs, shared by the ISDL lexer
// (isdl/lexer.cpp) and the assembler's line lexer (sim/assembler.cpp): one
// table lookup per byte, where <cctype>'s functions are out-of-line,
// locale-aware calls.

#ifndef ISDL_SUPPORT_ASCII_H
#define ISDL_SUPPORT_ASCII_H

#include <array>
#include <cstdint>
#include <string_view>

namespace isdl::ascii {

/// Classes of a byte; a byte outside ASCII is in none of them.
enum : std::uint8_t {
  kLetter = 1,
  kDigit = 2,
  kUnderscore = 4,
  kDot = 8,
  kBlank = 16,  ///< ' ', '\t' or '\r'
  kIdentStart = kLetter | kUnderscore,
  kIdentChar = kLetter | kDigit | kUnderscore,
};

inline constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> cls{};
  for (int c = 'a'; c <= 'z'; ++c) cls[c] = cls[c - 'a' + 'A'] = kLetter;
  for (int c = '0'; c <= '9'; ++c) cls[c] = kDigit;
  cls['_'] = kUnderscore;
  cls['.'] = kDot;
  cls[' '] = cls['\t'] = cls['\r'] = kBlank;
  return cls;
}();

/// True if `c` is in any of the classes of `mask`.
constexpr bool is(char c, std::uint8_t mask) {
  return (kClass[static_cast<unsigned char>(c)] & mask) != 0;
}

/// Reads the digits of a literal in `base`: a run of letters, digits and
/// underscores (kIdentChar), with underscores allowed anywhere.
struct Digits {
  std::uint64_t value = 0;  ///< the value modulo 2^64
  bool any = false;         ///< at least one digit
  bool overflow = false;    ///< the value does not fit in 64 bits
  char bad = 0;             ///< the first byte that is no digit of `base`

  Digits(std::string_view digits, unsigned base) {
    for (char c : digits) {
      if (c == '_') continue;
      const unsigned d = c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10;
      if (d >= base) {
        bad = c;
        return;
      }
      any = true;
      overflow |= __builtin_mul_overflow(value, base, &value);
      overflow |= __builtin_add_overflow(value, d, &value);
    }
  }
};

}  // namespace isdl::ascii

#endif  // ISDL_SUPPORT_ASCII_H
