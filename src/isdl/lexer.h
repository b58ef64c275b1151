// Lexer for the ISDL dialect. Produces a flat token stream consumed by the
// recursive-descent parser. Keywords are not reserved: section and
// declaration keywords are ordinary identifiers matched by spelling, so user
// names can never collide with the grammar.
//
// Lexing allocates nothing per token: a token's text is a view of the source.
// Lifetime rule: the source text must outlive every token lexed from it, and
// a token must not outlive the TokenStream that holds it (string literals
// with escapes and sized literals wider than 64 bits live in the stream).

#ifndef ISDL_ISDL_LEXER_H
#define ISDL_ISDL_LEXER_H

#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>
#include <vector>

#include "support/bitvector.h"
#include "support/diag.h"

namespace isdl {

enum class Tok : std::uint8_t {
  Identifier,
  Integer,     // 123, 0x1f, 0b1010
  SizedInt,    // Verilog-style 8'd255 / 8'h1f / 8'b1010
  String,      // "literal"
  // punctuation / operators
  LBrace, RBrace, LParen, RParen, LBracket, RBracket,
  Semi, Comma, Colon, Question, Dot, DotDot, Dollar2,  // $$
  Assign,      // =
  Arrow,       // <-
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Bang,
  AmpAmp, PipePipe,
  Shl, Shr, AShr,          // << >> >>>
  EqEq, BangEq, Lt, Le, Gt, Ge,
  EndOfFile,
};

const char* tokName(Tok t);

struct Token {
  Tok kind = Tok::EndOfFile;
  unsigned width = 0;      ///< SizedInt only: the literal's width
  SourceLoc loc;
  /// Identifier spelling / literal text (strings without their quotes): the
  /// source bytes, except for a string literal with escapes, whose decoded
  /// text lives in the TokenStream.
  std::string_view text;

  // Numeric payload (Integer / SizedInt):
  std::uint64_t intValue = 0;       ///< Integer, and SizedInt of width <= 64
  const BitVector* wide = nullptr;  ///< SizedInt wider than 64 bits

  bool is(Tok t) const { return kind == t; }
  bool isIdent(std::string_view s) const {
    return kind == Tok::Identifier && text == s;
  }
  /// SizedInt only: the literal's value at its width.
  BitVector sizedValue() const {
    return wide ? *wide : BitVector(width, intValue);
  }
};

/// The tokens of one source and the storage of the few tokens whose text or
/// value is not a view of that source. Moving a stream keeps its tokens
/// valid (list nodes do not move); copying is not allowed, because the
/// copy's tokens would still point into the original.
struct TokenStream {
  std::vector<Token> tokens;  ///< always ends with an EndOfFile token
  std::forward_list<std::string> decoded;  ///< string literals with escapes
  std::forward_list<BitVector> wide;  ///< sized literals wider than 64 bits

  TokenStream() = default;
  TokenStream(TokenStream&&) = default;
  TokenStream& operator=(TokenStream&&) = default;
  TokenStream(const TokenStream&) = delete;
  TokenStream& operator=(const TokenStream&) = delete;
};

/// Tokenizes `source`. Lexical errors are reported to `diags`; the returned
/// stream always ends with an EndOfFile token.
TokenStream lex(std::string_view source, DiagnosticEngine& diags);

}  // namespace isdl

#endif  // ISDL_ISDL_LEXER_H
