#include "isdl/lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "support/ascii.h"
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

using ascii::Digits;
using ascii::kIdentChar;
using ascii::kIdentStart;
constexpr std::uint8_t kDecimal = ascii::kDigit | ascii::kUnderscore;

const char* baseName(unsigned base) {
  return base == 2 ? "binary" : base == 16 ? "hexadecimal" : "decimal";
}

class Lexer {
 public:
  Lexer(std::string_view src, DiagnosticEngine& diags)
      : src_(src), diags_(diags) {}

  TokenStream run() {
    // Bundled, SPAM-family and generated descriptions have one token per
    // 2.7 to 4.4 bytes, so this is the only allocation of the vector.
    out_.tokens.reserve(src_.size() / 2 + 1);
    for (;;) {
      skipWhitespaceAndComments();
      if (atEnd()) break;
      next();
    }
    push(Tok::EndOfFile, here());
    return std::move(out_);
  }

 private:
  std::string_view src_;
  DiagnosticEngine& diags_;
  TokenStream out_;
  std::size_t pos_ = 0;
  std::size_t lineStart_ = 0;  ///< offset of the current line's first byte
  unsigned line_ = 1;

  bool atEnd() const { return pos_ >= src_.size(); }
  char peek(std::size_t off) const {
    return pos_ + off < src_.size() ? src_[pos_ + off] : '\0';
  }
  SourceLoc here() const {
    return {line_, static_cast<unsigned>(pos_ - lineStart_ + 1)};
  }
  /// Moves the cursor to `to`, counting the line breaks it passes.
  void skipTo(std::size_t to) {
    for (; pos_ < to; ++pos_)
      if (src_[pos_] == '\n') {
        ++line_;
        lineStart_ = pos_ + 1;
      }
  }
  /// The end of the run of bytes of class `cls` that starts at `from`.
  std::size_t scan(std::size_t from, std::uint8_t cls) const {
    while (from < src_.size() && ascii::is(src_[from], cls)) ++from;
    return from;
  }

  void skipWhitespaceAndComments() {
    while (!atEnd()) {
      char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        lineStart_ = ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '#' || (c == '/' && peek(1) == '/')) {
        pos_ = std::min(src_.find('\n', pos_), src_.size());
      } else if (c == '/' && peek(1) == '*') {
        SourceLoc start = here();
        std::size_t end = src_.find("*/", pos_ + 2);
        if (end == std::string_view::npos) {
          skipTo(src_.size());
          diags_.error(start, "unterminated block comment");
          return;
        }
        skipTo(end + 2);
      } else {
        return;
      }
    }
  }

  Token& push(Tok kind, SourceLoc loc, std::string_view text = {}) {
    Token& t = out_.tokens.emplace_back();
    t.kind = kind;
    t.loc = loc;
    t.text = text;
    return t;
  }

  /// Lexes the token at the cursor, or reports a bad character and skips it,
  /// so that run() resumes after whitespace and comments.
  void next() {
    SourceLoc loc = here();
    char c = src_[pos_];
    if (ascii::is(c, kIdentStart)) return lexIdentifier(loc);
    if (ascii::is(c, ascii::kDigit)) return lexNumber(loc);
    if (c == '"') return lexString(loc);

    for (int i = kPunctStart[static_cast<unsigned char>(c)];
         i < kNumPunct && kPunct[i].spelling()[0] == c; ++i) {
      std::string_view s = kPunct[i].spelling();
      if (src_.compare(pos_, s.size(), s) == 0) {
        pos_ += s.size();  // punctuation never spans a line
        push(kPunct[i].kind, loc);
        return;
      }
    }
    ++pos_;  // never a line break: run() skipped whitespace
    diags_.error(loc, c == '$' ? std::string("stray '$' (did you mean '$$'?)")
                               : cat("unexpected character '", c, "'"));
  }

  void lexIdentifier(SourceLoc loc) {
    const std::size_t end = scan(pos_ + 1, kIdentChar);
    push(Tok::Identifier, loc, src_.substr(pos_, end - pos_));
    pos_ = end;
  }

  /// Reports the digits of literal `t` that are no number; false if it did.
  bool checkDigits(const Token& t, const Digits& d, unsigned base) {
    if (d.any && !d.bad) return true;
    const std::string literal = t.kind == Tok::SizedInt
                                    ? cat("sized literal ", t.text)
                                    : cat("integer literal '", t.text, "'");
    if (d.bad)
      diags_.error(t.loc, cat("bad ", baseName(base), " digit '", d.bad,
                              "' in ", literal));
    else
      diags_.error(t.loc, cat(literal, " has no digits"));
    return false;
  }

  void lexNumber(SourceLoc loc) {
    const std::size_t start = pos_;
    // Leading digits (possibly the width of a sized literal).
    std::size_t end = scan(start, kDecimal);
    if (end < src_.size() && src_[end] == '\'') return lexSized(loc, end);

    // Unsized: decimal, hex or binary.
    unsigned base = 10;
    std::size_t digits = start;
    if (end == start + 1 && src_[start] == '0' && end < src_.size()) {
      const char prefix = src_[end];
      if (prefix == 'x' || prefix == 'X') base = 16;
      if (prefix == 'b' || prefix == 'B') base = 2;
      if (base != 10) {
        digits = end + 1;
        end = scan(digits, kIdentChar);
      }
    }
    pos_ = end;
    Token& t = push(Tok::Integer, loc, src_.substr(start, end - start));
    const Digits d(src_.substr(digits, end - digits), base);
    if (!checkDigits(t, d, base)) return;
    if (d.overflow)
      diags_.error(loc, "integer literal does not fit in 64 bits (use a "
                        "sized literal)");
    else
      t.intValue = d.value;
  }

  /// Sized literal: <width>'<base><digits>, with the cursor on the width and
  /// `quote` the offset of the quote.
  void lexSized(SourceLoc loc, std::size_t quote) {
    const std::size_t start = pos_;
    unsigned width = 0;  // saturates at 4097, so it cannot wrap
    for (char d : src_.substr(start, quote - start))
      if (d != '_') width = std::min(width * 10 + unsigned(d - '0'), 4097u);
    const bool widthOk = width != 0 && width <= 4096;
    if (!widthOk) {
      diags_.error(loc, "sized literal width out of range");
      width = 1;
    }
    // The base is the byte after the quote, whatever it is.
    skipTo(std::min(quote + 2, src_.size()));
    const char baseChar = quote + 1 < src_.size() ? src_[quote + 1] : '\0';
    const std::size_t digits = pos_;
    pos_ = scan(digits, kIdentChar);
    Token& t = push(Tok::SizedInt, loc, src_.substr(start, pos_ - start));
    t.width = width;
    // A bad width is the one error: no value fits a width that is not.
    if (!widthOk) return;
    unsigned base;
    switch (baseChar) {
      case 'd': case 'D': base = 10; break;
      case 'h': case 'H': case 'x': case 'X': base = 16; break;
      case 'b': case 'B': base = 2; break;
      default:
        diags_.error(loc, "bad base in sized literal (use d, h or b)");
        return;
    }
    const std::string_view ds = src_.substr(digits, pos_ - digits);
    const Digits d(ds, base);
    if (!checkDigits(t, d, base)) return;
    if (width <= 64) {
      if (!d.overflow && (width == 64 || (d.value >> width) == 0)) {
        t.intValue = d.value;
        return;
      }
    } else {
      // Parse with room for every digit (four bits hold any of them), so a
      // value too large for its width is reported instead of truncated.
      const unsigned room = width + 4 * static_cast<unsigned>(ds.size());
      BitVector v = BitVector::fromString(
          room, cat(base == 16 ? "0x" : base == 2 ? "0b" : "", ds));
      if (v.lshr(width).isZero()) {
        t.wide = &out_.wide.emplace_front(v.trunc(width));
        return;
      }
    }
    diags_.error(loc, cat("sized literal ", t.text, " does not fit in ", width,
                          " bits"));
  }

  void lexString(SourceLoc loc) {
    const std::size_t begin = pos_ + 1;  // after the opening quote
    std::size_t end = begin;
    bool escaped = false;
    while (end < src_.size() && src_[end] != '"') {
      if (src_[end] == '\\' && end + 1 < src_.size()) {
        escaped = true;
        end += 2;
      } else {
        ++end;
      }
    }
    std::string_view text = src_.substr(begin, end - begin);
    if (escaped) text = out_.decoded.emplace_front(decode(text));
    push(Tok::String, loc, text);
    if (end == src_.size()) {
      skipTo(end);
      diags_.error(loc, "unterminated string literal");
    } else {
      skipTo(end + 1);  // past the closing quote
    }
  }

  /// The text of a string literal whose body `raw` holds escapes.
  static std::string decode(std::string_view raw) {
    std::string text;
    text.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      char c = raw[i];
      if (c == '\\' && i + 1 < raw.size()) {
        switch (char esc = raw[++i]) {
          case 'n': text += '\n'; break;
          case 't': text += '\t'; break;
          default: text += esc; break;  // '\\', '"' and any other byte
        }
      } else {
        text += c;
      }
    }
    return text;
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

TokenStream lex(std::string_view source, DiagnosticEngine& diags) {
  return Lexer(source, diags).run();
}

}  // namespace isdl
