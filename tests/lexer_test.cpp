#include "isdl/lexer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace isdl {
namespace {

std::vector<Token> lexOk(std::string_view src) {
  DiagnosticEngine diags;
  auto toks = lex(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return toks;
}

TEST(Lexer, EmptyInput) {
  auto toks = lexOk("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_TRUE(toks[0].is(Tok::EndOfFile));
}

TEST(Lexer, IdentifiersAndPunctuation) {
  auto toks = lexOk("machine M { section format }");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_TRUE(toks[0].isIdent("machine"));
  EXPECT_TRUE(toks[1].isIdent("M"));
  EXPECT_TRUE(toks[2].is(Tok::LBrace));
  EXPECT_TRUE(toks[3].isIdent("section"));
  EXPECT_TRUE(toks[5].is(Tok::RBrace));
}

TEST(Lexer, Comments) {
  auto toks = lexOk("a // line comment\nb # hash comment\nc /* block\n */ d");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_TRUE(toks[0].isIdent("a"));
  EXPECT_TRUE(toks[1].isIdent("b"));
  EXPECT_TRUE(toks[2].isIdent("c"));
  EXPECT_TRUE(toks[3].isIdent("d"));
}

TEST(Lexer, UnterminatedBlockComment) {
  DiagnosticEngine diags;
  lex("a /* never ends", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, IntegerForms) {
  auto toks = lexOk("42 0x2A 0b101010 1_000");
  EXPECT_EQ(toks[0].intValue, 42u);
  EXPECT_EQ(toks[1].intValue, 42u);
  EXPECT_EQ(toks[2].intValue, 42u);
  EXPECT_EQ(toks[3].intValue, 1000u);
}

TEST(Lexer, SizedIntegers) {
  auto toks = lexOk("8'd255 4'b1010 16'hBEEF 12'hABC");
  ASSERT_TRUE(toks[0].is(Tok::SizedInt));
  EXPECT_EQ(toks[0].sizedValue.width(), 8u);
  EXPECT_EQ(toks[0].sizedValue.toUint64(), 255u);
  EXPECT_EQ(toks[1].sizedValue.width(), 4u);
  EXPECT_EQ(toks[1].sizedValue.toUint64(), 10u);
  EXPECT_EQ(toks[2].sizedValue.toUint64(), 0xBEEFu);
  EXPECT_EQ(toks[3].sizedValue.width(), 12u);
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
  ASSERT_EQ(toks.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_TRUE(toks[i].is(expected[i])) << "token " << i;
}

TEST(Lexer, StringsWithEscapes) {
  auto toks = lexOk(R"("hello" "a\"b" "tab\tend")");
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "a\"b");
  EXPECT_EQ(toks[2].text, "tab\tend");
}

TEST(Lexer, UnterminatedString) {
  DiagnosticEngine diags;
  lex("\"never ends", diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, SourceLocations) {
  auto toks = lexOk("a\n  b");
  EXPECT_EQ(toks[0].loc.line, 1u);
  EXPECT_EQ(toks[0].loc.col, 1u);
  EXPECT_EQ(toks[1].loc.line, 2u);
  EXPECT_EQ(toks[1].loc.col, 3u);
}

TEST(Lexer, UnexpectedCharacterRecovers) {
  DiagnosticEngine diags;
  auto toks = lex("a @ b", diags);
  // One diagnostic for the bad character; the blank after it is not one.
  EXPECT_EQ(diags.dump(), "1:3: error: unexpected character '@'\n");
  // Both identifiers still arrive.
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_TRUE(toks[0].isIdent("a"));
  EXPECT_TRUE(toks[1].isIdent("b"));

  // Nor is the newline after one, nor after a stray '$'.
  diags.clear();
  toks = lex("a @\nb $\n", diags);
  EXPECT_EQ(diags.dump(),
            "1:3: error: unexpected character '@'\n"
            "2:3: error: stray '$' (did you mean '$$'?)\n");
  EXPECT_EQ(toks.size(), 3u);
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
  auto toks = lexOk("4'hF 8'd255 2'b11 4'h00F 8'b1111_1111");
  EXPECT_EQ(toks[0].sizedValue.toUint64(), 15u);
  EXPECT_EQ(toks[1].sizedValue.toUint64(), 255u);
  EXPECT_EQ(toks[2].sizedValue.toUint64(), 3u);
  EXPECT_EQ(toks[3].sizedValue.toUint64(), 15u);
  EXPECT_EQ(toks[4].sizedValue.toUint64(), 255u);
  // One past is reported, naming the width, instead of truncated.
  const std::pair<const char*, const char*> cases[] = {
      {"4'hFF", "1:1: error: sized literal 4'hFF does not fit in 4 bits\n"},
      {"8'd256", "1:1: error: sized literal 8'd256 does not fit in 8 bits\n"},
      {"2'b1111",
       "1:1: error: sized literal 2'b1111 does not fit in 2 bits\n"},
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
  EXPECT_EQ(toks[0].intValue, ~std::uint64_t{0});
  EXPECT_EQ(toks[1].intValue, ~std::uint64_t{0});
  EXPECT_EQ(toks[2].intValue, 1u);
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
    ASSERT_EQ(toks.size(), 2u) << spelling;
    EXPECT_TRUE(toks[0].is(kind)) << spelling;
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
    ASSERT_EQ(toks.size(), kinds.size() + 1) << src;
    for (std::size_t i = 0; i < kinds.size(); ++i)
      EXPECT_TRUE(toks[i].is(kinds[i])) << src << " token " << i;
  }
}

}  // namespace
}  // namespace isdl
