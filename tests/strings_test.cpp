// cat() prints every argument exactly as `std::ostream <<` does, without a
// stream: diagnostics, HGEN's net names and the exploration JSON are built
// with it, so a changed byte would change reported results.

#include "support/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

namespace isdl {
namespace {

template <typename... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// A type cat() knows nothing about but its operator<<.
struct Point {
  int x, y;
};
std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << '(' << p.x << ", " << p.y << ')';
}

enum Unscoped { kFirst = 3, kSecond = -7 };

TEST(Cat, StringsAsTheyAre) {
  const std::string s = "dec_U0_add";
  const std::string_view v = "par_";
  const char* p = "shared_unit";
  char buffer[] = "mutable";
  EXPECT_EQ(cat(s, v, p, buffer, "lit"), streamed(s, v, p, buffer, "lit"));
  EXPECT_EQ(cat(s, v, p, buffer, "lit"), "dec_U0_addpar_shared_unitmutablelit");
  EXPECT_EQ(cat(), "");
  EXPECT_EQ(cat(std::string(), ""), "");
  // A view stops at its length, not at a NUL.
  const std::string_view withNul("a\0b", 3);
  EXPECT_EQ(cat(withNul), streamed(withNul));
  EXPECT_EQ(cat(withNul).size(), 3u);
}

TEST(Cat, CharactersAsCharacters) {
  const std::uint8_t u8 = 'A';
  const std::int8_t i8 = 'z';
  const unsigned char uc = 200;
  const signed char sc = -56;
  EXPECT_EQ(cat('x', u8, i8), "xAz");
  EXPECT_EQ(cat('x', u8, i8, uc, sc), streamed('x', u8, i8, uc, sc));
  EXPECT_EQ(cat('\0').size(), 1u);
}

TEST(Cat, BoolAsDigit) {
  EXPECT_EQ(cat(true, false), "10");
  EXPECT_EQ(cat(true, false), streamed(true, false));
}

TEST(Cat, IntegersInDecimal) {
  constexpr auto i64min = std::numeric_limits<std::int64_t>::min();
  constexpr auto u64max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(cat(i64min), "-9223372036854775808");
  EXPECT_EQ(cat(u64max), "18446744073709551615");
  const short sh = -32768;
  const unsigned short us = 65535;
  const long l = -1;
  const unsigned long long ull = 0;
  const std::size_t sz = 175;
  EXPECT_EQ(cat(i64min, ' ', u64max, ' ', sh, ' ', us, ' ', l, ' ', ull, ' ',
                sz, ' ', 0, ' ', -0, ' ', 42u),
            streamed(i64min, ' ', u64max, ' ', sh, ' ', us, ' ', l, ' ', ull,
                     ' ', sz, ' ', 0, ' ', -0, ' ', 42u));
  constexpr int imin = std::numeric_limits<int>::min();
  constexpr int imax = std::numeric_limits<int>::max();
  EXPECT_EQ(cat(imin, imax), streamed(imin, imax));
  // Unscoped enumerators print through their operator<< as integers.
  EXPECT_EQ(cat(kFirst, kSecond), "3-7");
}

TEST(Cat, FloatingPointInTheStreamsDefaultForm) {
  using L = std::numeric_limits<double>;
  for (double d :
       {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 20.35, 12.45, 123.456789, 999999.0,
        1e6, 1234567.0, 1e-4, 1e-5, 2.5e-7, 1e100, -3.25e-300, L::min(),
        L::denorm_min(), L::max(), L::lowest(), L::epsilon(), L::infinity(),
        -L::infinity(), L::quiet_NaN(), 1.0 / 3.0, 2.0 / 3.0, 100000.5,
        9999995.0, 0.00012345678}) {
    EXPECT_EQ(cat(d), streamed(d)) << "value " << d;
  }
  EXPECT_EQ(cat(0.1, " ", 1e6, " ", 1234567.0), "0.1 1e+06 1.23457e+06");
  const float f = 3.14159265f;
  EXPECT_EQ(cat(f, 1.5f), streamed(f, 1.5f));
}

TEST(Cat, AnythingElseThroughItsOperator) {
  const Point p{4, -2};
  EXPECT_EQ(cat("p=", p, ';'), "p=(4, -2);");
  EXPECT_EQ(cat("p=", p, ';'), streamed("p=", p, ';'));
}

TEST(Cat, MixedArgumentsAsInDiagnostics) {
  const std::string field = "U0";
  const unsigned bit = 17, total = 16;
  EXPECT_EQ(cat("operation '", field, ".", "add", "': bit ", bit,
                " exceeds instruction size (", total, " bits)"),
            streamed("operation '", field, ".", "add", "': bit ", bit,
                     " exceeds instruction size (", total, " bits)"));
}

}  // namespace
}  // namespace isdl
