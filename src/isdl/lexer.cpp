#include "isdl/lexer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <optional>

#include "support/strings.h"

namespace isdl {

namespace {

/// Every punctuation kind, spelled once with its quotes: the lexer matches
/// the text between the quotes and tokName() prints the whole entry (a
/// string literal, so `quoted.data()` is NUL-terminated).
struct Punct {
  std::string_view quoted;
  Tok kind;

  constexpr std::string_view spelling() const {
    return quoted.substr(1, quoted.size() - 2);
  }
};

/// Entries sharing a first character are adjacent, longest first, so the
/// first entry of a run that matches at the cursor is the longest match.
constexpr Punct kPunct[] = {
    {"'>>>'", Tok::AShr},   {"'>>'", Tok::Shr},     {"'>='", Tok::Ge},
    {"'>'", Tok::Gt},       {"'<-'", Tok::Arrow},   {"'<<'", Tok::Shl},
    {"'<='", Tok::Le},      {"'<'", Tok::Lt},       {"'=='", Tok::EqEq},
    {"'='", Tok::Assign},   {"'!='", Tok::BangEq},  {"'!'", Tok::Bang},
    {"'&&'", Tok::AmpAmp},  {"'&'", Tok::Amp},      {"'||'", Tok::PipePipe},
    {"'|'", Tok::Pipe},     {"'..'", Tok::DotDot},  {"'.'", Tok::Dot},
    {"'$$'", Tok::Dollar2}, {"'{'", Tok::LBrace},   {"'}'", Tok::RBrace},
    {"'('", Tok::LParen},   {"')'", Tok::RParen},   {"'['", Tok::LBracket},
    {"']'", Tok::RBracket}, {"';'", Tok::Semi},     {"','", Tok::Comma},
    {"':'", Tok::Colon},    {"'?'", Tok::Question}, {"'+'", Tok::Plus},
    {"'-'", Tok::Minus},    {"'*'", Tok::Star},     {"'/'", Tok::Slash},
    {"'%'", Tok::Percent},  {"'^'", Tok::Caret},    {"'~'", Tok::Tilde},
};
constexpr int kNumPunct = static_cast<int>(std::size(kPunct));

/// For each character, the index of the first kPunct entry it starts, or
/// kNumPunct if none does.
constexpr auto kPunctStart = [] {
  std::array<std::int8_t, 256> start{};
  start.fill(kNumPunct);
  for (int i = kNumPunct - 1; i >= 0; --i)
    start[static_cast<unsigned char>(kPunct[i].spelling()[0])] =
        static_cast<std::int8_t>(i);
  return start;
}();

class Lexer {
 public:
  Lexer(std::string_view src, DiagnosticEngine& diags)
      : src_(src), diags_(diags) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    for (;;) {
      skipWhitespaceAndComments();
      if (atEnd()) break;
      if (std::optional<Token> t = next()) out.push_back(std::move(*t));
    }
    out.push_back(make(Tok::EndOfFile, here()));
    return out;
  }

 private:
  std::string_view src_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  unsigned line_ = 1, col_ = 1;

  bool atEnd() const { return pos_ >= src_.size(); }
  char peek(std::size_t off = 0) const {
    return pos_ + off < src_.size() ? src_[pos_ + off] : '\0';
  }
  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  SourceLoc here() const { return {line_, col_}; }

  void skipWhitespaceAndComments() {
    for (;;) {
      if (atEnd()) return;
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '#' || (c == '/' && peek(1) == '/')) {
        while (!atEnd() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        SourceLoc start = here();
        advance();
        advance();
        while (!atEnd() && !(peek() == '*' && peek(1) == '/')) advance();
        if (atEnd()) {
          diags_.error(start, "unterminated block comment");
          return;
        }
        advance();
        advance();
      } else {
        return;
      }
    }
  }

  Token make(Tok kind, SourceLoc loc, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.loc = loc;
    t.text = std::move(text);
    return t;
  }

  /// Lexes the token at the cursor, or reports a bad character, skips it and
  /// returns nothing so that run() resumes after whitespace and comments.
  std::optional<Token> next() {
    SourceLoc loc = here();
    char c = peek();

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
      return lexIdentifier(loc);
    if (std::isdigit(static_cast<unsigned char>(c))) return lexNumber(loc);
    if (c == '"') return lexString(loc);

    for (int i = kPunctStart[static_cast<unsigned char>(c)];
         i < kNumPunct && kPunct[i].spelling()[0] == c; ++i) {
      std::string_view s = kPunct[i].spelling();
      if (src_.compare(pos_, s.size(), s) == 0) {
        pos_ += s.size();  // punctuation never spans a line
        col_ += static_cast<unsigned>(s.size());
        return make(kPunct[i].kind, loc);
      }
    }
    advance();
    diags_.error(loc, c == '$' ? std::string("stray '$' (did you mean '$$'?)")
                               : cat("unexpected character '", c, "'"));
    return std::nullopt;
  }

  Token lexIdentifier(SourceLoc loc) {
    std::string text;
    while (!atEnd()) {
      char c = peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        text += advance();
      } else {
        break;
      }
    }
    Token t = make(Tok::Identifier, loc, std::move(text));
    return t;
  }

  Token lexNumber(SourceLoc loc) {
    std::string text;
    // Leading digits (possibly the width of a sized literal).
    while (!atEnd() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      text += advance();

    if (!atEnd() && peek() == '\'') {
      // Sized literal: <width>'<base><digits>
      advance();
      unsigned width = 0;  // saturates at 4097, so it cannot wrap
      for (char d : text)
        if (d != '_') width = std::min(width * 10 + unsigned(d - '0'), 4097u);
      const bool widthOk = width != 0 && width <= 4096;
      if (!widthOk) {
        diags_.error(loc, "sized literal width out of range");
        width = 1;
      }
      char base = atEnd() ? '\0' : advance();
      std::string digits;
      while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                          peek() == '_'))
        digits += advance();
      Token t = make(Tok::SizedInt, loc, text + "'" + base + digits);
      t.sizedValue = BitVector(width);
      // A bad width is the one error: no value fits a width that is not.
      if (!widthOk) return t;
      // Parse with room for every digit (four bits hold any of them), so a
      // value too large for its width is reported instead of truncated.
      const unsigned room =
          width + 4 * static_cast<unsigned>(std::max<std::size_t>(
                          digits.size(), 1));
      std::string_view prefix;
      switch (base) {
        case 'd': case 'D': break;
        case 'h': case 'H': case 'x': case 'X': prefix = "0x"; break;
        case 'b': case 'B': prefix = "0b"; break;
        default:
          diags_.error(loc, "bad base in sized literal (use d, h or b)");
          return t;
      }
      try {
        BitVector v = BitVector::fromString(room, cat(prefix, digits));
        if (!v.lshr(width).isZero())
          diags_.error(loc, cat("sized literal ", t.text,
                                " does not fit in ", width, " bits"));
        else
          t.sizedValue = v.trunc(width);
      } catch (const std::invalid_argument& e) {
        diags_.error(loc, cat("bad sized literal: ", e.what()));
      }
      return t;
    }

    // Unsized: decimal, hex or binary.
    if (text == "0" && !atEnd() &&
        (peek() == 'x' || peek() == 'X' || peek() == 'b' || peek() == 'B')) {
      text += advance();
      while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                          peek() == '_'))
        text += advance();
    }
    Token t = make(Tok::Integer, loc, text);
    try {
      // Four bits per character hold every digit; wider values must be sized.
      BitVector v = BitVector::fromString(
          std::max(64u, 4 * static_cast<unsigned>(text.size())), text);
      if (v.lshr(64).isZero())
        t.intValue = v.toUint64();
      else
        diags_.error(loc, "integer literal does not fit in 64 bits (use a "
                          "sized literal)");
    } catch (const std::invalid_argument& e) {
      diags_.error(loc, cat("bad integer literal: ", e.what()));
    }
    return t;
  }

  Token lexString(SourceLoc loc) {
    advance();  // opening quote
    std::string text;
    while (!atEnd() && peek() != '"') {
      char c = advance();
      if (c == '\\' && !atEnd()) {
        char esc = advance();
        switch (esc) {
          case 'n': text += '\n'; break;
          case 't': text += '\t'; break;
          case '\\': text += '\\'; break;
          case '"': text += '"'; break;
          default: text += esc; break;
        }
      } else {
        text += c;
      }
    }
    if (atEnd()) {
      diags_.error(loc, "unterminated string literal");
    } else {
      advance();  // closing quote
    }
    return make(Tok::String, loc, std::move(text));
  }
};

}  // namespace

const char* tokName(Tok t) {
  switch (t) {
    case Tok::Identifier: return "identifier";
    case Tok::Integer: return "integer";
    case Tok::SizedInt: return "sized integer";
    case Tok::String: return "string";
    case Tok::EndOfFile: return "end of input";
    default: break;
  }
  for (const Punct& p : kPunct)
    if (p.kind == t) return p.quoted.data();
  return "?";
}

std::vector<Token> lex(std::string_view source, DiagnosticEngine& diags) {
  return Lexer(source, diags).run();
}

}  // namespace isdl
