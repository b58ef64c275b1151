#include "isdl/lexer.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "archs/archs.h"
#include "explore/spamfamily.h"
#include "testing/machinegen.h"

namespace isdl {
namespace {

/// Lexes `src`, expecting no diagnostic. The tokens point into `src`.
TokenStream lexOk(std::string_view src) {
  DiagnosticEngine diags;
  TokenStream toks = lex(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return toks;
}

TEST(Lexer, EmptyInput) {
  auto toks = lexOk("");
  ASSERT_EQ(toks.tokens.size(), 1u);
  EXPECT_TRUE(toks.tokens[0].is(Tok::EndOfFile));
}

TEST(Lexer, IdentifiersAndPunctuation) {
  auto toks = lexOk("machine M { section format }");
  ASSERT_EQ(toks.tokens.size(), 7u);
  EXPECT_TRUE(toks.tokens[0].isIdent("machine"));
  EXPECT_TRUE(toks.tokens[1].isIdent("M"));
  EXPECT_TRUE(toks.tokens[2].is(Tok::LBrace));
  EXPECT_TRUE(toks.tokens[3].isIdent("section"));
  EXPECT_TRUE(toks.tokens[5].is(Tok::RBrace));
}

TEST(Lexer, Comments) {
  auto toks = lexOk("a // line comment\nb # hash comment\nc /* block\n */ d");
  ASSERT_EQ(toks.tokens.size(), 5u);
  EXPECT_TRUE(toks.tokens[0].isIdent("a"));
  EXPECT_TRUE(toks.tokens[1].isIdent("b"));
  EXPECT_TRUE(toks.tokens[2].isIdent("c"));
  EXPECT_TRUE(toks.tokens[3].isIdent("d"));
}

TEST(Lexer, UnterminatedBlockComment) {
  DiagnosticEngine diags;
  lex("a /* never ends", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, IntegerForms) {
  auto toks = lexOk("42 0x2A 0b101010 1_000 0X1F 0B11 007 1__2");
  const std::uint64_t expected[] = {42, 42, 42, 1000, 31, 3, 7, 12};
  ASSERT_EQ(toks.tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_TRUE(toks.tokens[i].is(Tok::Integer)) << "token " << i;
    EXPECT_EQ(toks.tokens[i].intValue, expected[i]) << "token " << i;
  }
}

TEST(Lexer, NumberWithNoDigitsOrABadDigitNamesTheLiteral) {
  const std::pair<const char*, const char*> cases[] = {
      {"0x_", "1:1: error: integer literal '0x_' has no digits\n"},
      {"0b__", "1:1: error: integer literal '0b__' has no digits\n"},
      {"0x", "1:1: error: integer literal '0x' has no digits\n"},
      {"0B", "1:1: error: integer literal '0B' has no digits\n"},
      {"8'h_", "1:1: error: sized literal 8'h_ has no digits\n"},
      {"8'd_", "1:1: error: sized literal 8'd_ has no digits\n"},
      {"8'h", "1:1: error: sized literal 8'h has no digits\n"},
      {"8'b", "1:1: error: sized literal 8'b has no digits\n"},
      {"x 100'h__;", "1:3: error: sized literal 100'h__ has no digits\n"},
      {"0xZZ",
       "1:1: error: bad hexadecimal digit 'Z' in integer literal '0xZZ'\n"},
      {"0b102",
       "1:1: error: bad binary digit '2' in integer literal '0b102'\n"},
      {"8'hZ", "1:1: error: bad hexadecimal digit 'Z' in sized literal 8'hZ\n"},
      {"8'd1F", "1:1: error: bad decimal digit 'F' in sized literal 8'd1F\n"},
      {"4'b0_2", "1:1: error: bad binary digit '2' in sized literal 4'b0_2\n"},
      {"128'hG1",
       "1:1: error: bad hexadecimal digit 'G' in sized literal 128'hG1\n"},
  };
  for (const auto& [src, message] : cases) {
    DiagnosticEngine diags;
    lex(src, diags);
    EXPECT_EQ(diags.dump(), message) << src;
  }
}

TEST(Lexer, SizedIntegers) {
  auto toks = lexOk("8'd255 4'b1010 16'hBEEF 12'hABC");
  ASSERT_TRUE(toks.tokens[0].is(Tok::SizedInt));
  EXPECT_EQ(toks.tokens[0].sizedValue().width(), 8u);
  EXPECT_EQ(toks.tokens[0].sizedValue().toUint64(), 255u);
  EXPECT_EQ(toks.tokens[1].sizedValue().width(), 4u);
  EXPECT_EQ(toks.tokens[1].sizedValue().toUint64(), 10u);
  EXPECT_EQ(toks.tokens[2].sizedValue().toUint64(), 0xBEEFu);
  EXPECT_EQ(toks.tokens[3].sizedValue().width(), 12u);
}

TEST(Lexer, SizedIntegerBadBase) {
  DiagnosticEngine diags;
  lex("8'q12", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, MultiCharOperators) {
  auto toks = lexOk("<- << >> >>> == != <= >= && || .. $$ < > = ! & |");
  Tok expected[] = {Tok::Arrow, Tok::Shl, Tok::Shr, Tok::AShr, Tok::EqEq,
                    Tok::BangEq, Tok::Le, Tok::Ge, Tok::AmpAmp, Tok::PipePipe,
                    Tok::DotDot, Tok::Dollar2, Tok::Lt, Tok::Gt, Tok::Assign,
                    Tok::Bang, Tok::Amp, Tok::Pipe};
  ASSERT_EQ(toks.tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_TRUE(toks.tokens[i].is(expected[i])) << "token " << i;
}

TEST(Lexer, StringsWithEscapes) {
  auto toks = lexOk(R"("hello" "a\"b" "tab\tend")");
  EXPECT_EQ(toks.tokens[0].text, "hello");
  EXPECT_EQ(toks.tokens[1].text, "a\"b");
  EXPECT_EQ(toks.tokens[2].text, "tab\tend");
}

TEST(Lexer, UnterminatedString) {
  DiagnosticEngine diags;
  lex("\"never ends", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, SourceLocations) {
  auto toks = lexOk("a\n  b");
  EXPECT_EQ(toks.tokens[0].loc.line, 1u);
  EXPECT_EQ(toks.tokens[0].loc.col, 1u);
  EXPECT_EQ(toks.tokens[1].loc.line, 2u);
  EXPECT_EQ(toks.tokens[1].loc.col, 3u);
}

TEST(Lexer, UnexpectedCharacterRecovers) {
  DiagnosticEngine diags;
  auto toks = lex("a @ b", diags);
  // One diagnostic for the bad character; the blank after it is not one.
  EXPECT_EQ(diags.dump(), "1:3: error: unexpected character '@'\n");
  // Both identifiers still arrive.
  ASSERT_EQ(toks.tokens.size(), 3u);
  EXPECT_TRUE(toks.tokens[0].isIdent("a"));
  EXPECT_TRUE(toks.tokens[1].isIdent("b"));

  // Nor is the newline after one, nor after a stray '$'.
  diags.clear();
  toks = lex("a @\nb $\n", diags);
  EXPECT_EQ(diags.dump(),
            "1:3: error: unexpected character '@'\n"
            "2:3: error: stray '$' (did you mean '$$'?)\n");
  EXPECT_EQ(toks.tokens.size(), 3u);
}

TEST(Lexer, SizedLiteralWidthOutOfRange) {
  // 4294967297 wraps to 1 in 32 bits; it must not pass as a 1-bit width.
  // The width error is the only one, whatever the value.
  for (const char* src : {"4294967297'd1", "4097'd1", "0'd1", "4097'd5",
                          "5000'd7", "0'hFF"}) {
    DiagnosticEngine diags;
    lex(src, diags);
    EXPECT_EQ(diags.dump(), "1:1: error: sized literal width out of range\n")
        << src;
  }
}

TEST(Lexer, SizedLiteralValueMustFitItsWidth) {
  // Leading zeros and underscores are free; the largest value of each width
  // fits.
  auto toks = lexOk(
      "4'hF 8'd255 2'b11 4'h00F 8'b1111_1111 64'hFFFF_FFFF_FFFF_FFFF 1'b0 "
      "8'D255");
  const std::pair<unsigned, std::uint64_t> expected[] = {
      {4, 15}, {8, 255}, {2, 3}, {4, 15}, {8, 255}, {64, ~std::uint64_t{0}},
      {1, 0}, {8, 255}};
  ASSERT_EQ(toks.tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const BitVector v = toks.tokens[i].sizedValue();
    EXPECT_EQ(v.width(), expected[i].first) << "token " << i;
    EXPECT_EQ(v.toUint64(), expected[i].second) << "token " << i;
  }
  // Wider than 64 bits: 2^64 at 65 bits, and 1 at the widest width.
  toks = lexOk("65'h1_0000_0000_0000_0000 4096'h1");
  const BitVector twoTo64 = toks.tokens[0].sizedValue();
  EXPECT_EQ(twoTo64.width(), 65u);
  EXPECT_EQ(twoTo64.lshr(64).toUint64(), 1u);
  EXPECT_TRUE(twoTo64.trunc(64).isZero());
  const BitVector one = toks.tokens[1].sizedValue();
  EXPECT_EQ(one.width(), 4096u);
  EXPECT_TRUE(one.lshr(1).isZero());
  EXPECT_EQ(one.toUint64(), 1u);
  // One past is reported, naming the width, instead of truncated.
  const std::pair<const char*, const char*> cases[] = {
      {"4'hFF", "1:1: error: sized literal 4'hFF does not fit in 4 bits\n"},
      {"8'd256", "1:1: error: sized literal 8'd256 does not fit in 8 bits\n"},
      {"2'b1111",
       "1:1: error: sized literal 2'b1111 does not fit in 2 bits\n"},
      {"64'h1_0000_0000_0000_0000",
       "1:1: error: sized literal 64'h1_0000_0000_0000_0000 does not fit in "
       "64 bits\n"},
      {"65'h2_0000_0000_0000_0000",
       "1:1: error: sized literal 65'h2_0000_0000_0000_0000 does not fit in "
       "65 bits\n"},
  };
  for (const auto& [src, message] : cases) {
    DiagnosticEngine diags;
    lex(src, diags);
    EXPECT_EQ(diags.dump(), message) << src;
  }
}

TEST(Lexer, UnsizedIntegerBeyond64Bits) {
  auto toks =
      lexOk("18446744073709551615 0xFFFF_FFFF_FFFF_FFFF 0x0000000000000000001");
  EXPECT_EQ(toks.tokens[0].intValue, ~std::uint64_t{0});
  EXPECT_EQ(toks.tokens[1].intValue, ~std::uint64_t{0});
  EXPECT_EQ(toks.tokens[2].intValue, 1u);
  for (const char* src : {"99999999999999999999", "18446744073709551616",
                          "0x1_0000_0000_0000_0000"}) {
    DiagnosticEngine diags;
    lex(src, diags);
    EXPECT_EQ(diags.dump(),
              "1:1: error: integer literal does not fit in 64 bits (use a "
              "sized literal)\n")
        << src;
  }
}

TEST(Lexer, EveryPunctuationLexesFromItsSpelling) {
  const std::pair<const char*, Tok> punct[] = {
      {"{", Tok::LBrace},     {"}", Tok::RBrace},   {"(", Tok::LParen},
      {")", Tok::RParen},     {"[", Tok::LBracket}, {"]", Tok::RBracket},
      {";", Tok::Semi},       {",", Tok::Comma},    {":", Tok::Colon},
      {"?", Tok::Question},   {".", Tok::Dot},      {"..", Tok::DotDot},
      {"$$", Tok::Dollar2},   {"=", Tok::Assign},   {"<-", Tok::Arrow},
      {"+", Tok::Plus},       {"-", Tok::Minus},    {"*", Tok::Star},
      {"/", Tok::Slash},      {"%", Tok::Percent},  {"&", Tok::Amp},
      {"|", Tok::Pipe},       {"^", Tok::Caret},    {"~", Tok::Tilde},
      {"!", Tok::Bang},       {"&&", Tok::AmpAmp},  {"||", Tok::PipePipe},
      {"<<", Tok::Shl},       {">>", Tok::Shr},     {">>>", Tok::AShr},
      {"==", Tok::EqEq},      {"!=", Tok::BangEq},  {"<", Tok::Lt},
      {"<=", Tok::Le},        {">", Tok::Gt},       {">=", Tok::Ge},
  };
  for (const auto& [spelling, kind] : punct) {
    auto toks = lexOk(spelling);
    ASSERT_EQ(toks.tokens.size(), 2u) << spelling;
    EXPECT_TRUE(toks.tokens[0].is(kind)) << spelling;
    EXPECT_EQ(tokName(kind), "'" + std::string(spelling) + "'");
  }
  EXPECT_STREQ(tokName(Tok::Identifier), "identifier");
  EXPECT_STREQ(tokName(Tok::Integer), "integer");
  EXPECT_STREQ(tokName(Tok::SizedInt), "sized integer");
  EXPECT_STREQ(tokName(Tok::String), "string");
  EXPECT_STREQ(tokName(Tok::EndOfFile), "end of input");
}

TEST(Lexer, PunctuationTakesTheLongestMatch) {
  const std::pair<const char*, std::vector<Tok>> cases[] = {
      {">>>", {Tok::AShr}},
      {">>=", {Tok::Shr, Tok::Assign}},
      {">>>>", {Tok::AShr, Tok::Gt}},
      {"<-", {Tok::Arrow}},
      {"<=", {Tok::Le}},
      {"<<", {Tok::Shl}},
      {"<<-", {Tok::Shl, Tok::Minus}},
      {"<<=", {Tok::Shl, Tok::Assign}},
      {"..", {Tok::DotDot}},
      {"...", {Tok::DotDot, Tok::Dot}},
      {".", {Tok::Dot}},
      {"&&&", {Tok::AmpAmp, Tok::Amp}},
      {"|||", {Tok::PipePipe, Tok::Pipe}},
      {"===", {Tok::EqEq, Tok::Assign}},
      {"!==", {Tok::BangEq, Tok::Assign}},
      {"$$$$", {Tok::Dollar2, Tok::Dollar2}},
      {"a<-b", {Tok::Identifier, Tok::Arrow, Tok::Identifier}},
  };
  for (const auto& [src, kinds] : cases) {
    auto toks = lexOk(src);
    ASSERT_EQ(toks.tokens.size(), kinds.size() + 1) << src;
    for (std::size_t i = 0; i < kinds.size(); ++i)
      EXPECT_TRUE(toks.tokens[i].is(kinds[i])) << src << " token " << i;
  }
}

/// Every identifier and number token's text is the source bytes at its
/// location, on every bundled description, the SPAM family and generated
/// machines.
TEST(Lexer, TokenTextMatchesTheSourceAtItsLocation) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"SPAM", archs::spamIsdl()},
      {"SPAM2", archs::spam2Isdl()},
      {"SREP", archs::srepIsdl()},
      {"TDSP", archs::tdspIsdl()},
  };
  for (unsigned alus = 1; alus <= 4; ++alus)
    for (unsigned moves = 0; moves <= 3; ++moves) {
      explore::Candidate c = explore::makeSpamVariant({alus, moves});
      sources.emplace_back(c.name, std::move(c.isdlSource));
    }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    sources.emplace_back(
        "machinegen seed " + std::to_string(seed),
        testing::emitIsdl(testing::randomMachineSpec(rng)));
  }
  for (const auto& [name, src] : sources) {
    SCOPED_TRACE(name);
    std::vector<std::size_t> lineStart = {0};
    for (std::size_t i = 0; i < src.size(); ++i)
      if (src[i] == '\n') lineStart.push_back(i + 1);
    TokenStream toks = lexOk(src);
    std::size_t checked = 0;
    for (const Token& t : toks.tokens) {
      if (!t.is(Tok::Identifier) && !t.is(Tok::Integer) &&
          !t.is(Tok::SizedInt))
        continue;
      ASSERT_GE(t.loc.line, 1u);
      ASSERT_LE(t.loc.line, lineStart.size());
      const std::size_t offset = lineStart[t.loc.line - 1] + t.loc.col - 1;
      ASSERT_LE(offset + t.text.size(), src.size());
      EXPECT_EQ(std::string_view(src).substr(offset, t.text.size()), t.text)
          << "at " << t.loc.str();
      ++checked;
    }
    EXPECT_GT(checked, 0u);
  }
}

}  // namespace
}  // namespace isdl
