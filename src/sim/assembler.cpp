#include "sim/assembler.h"

#include <bit>
#include <cerrno>

#include "support/strings.h"

namespace isdl::sim {

namespace {

// --- assembly micro-lexer -------------------------------------------------------

struct AsmTok {
  std::string text;
  bool isNumber = false;
  std::int64_t number = 0;
  unsigned col = 0;
};

// ASCII character classes: <cctype>'s are out-of-line, locale-aware calls.
bool isAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isAlnum(char c) { return isAlpha(c) || isDigit(c); }

/// Tokenizes one line of assembly: identifiers, numbers (decimal / 0x / 0b),
/// and single-character punctuation. Comments (';', '//') end the line.
/// Returns false on a malformed number or one that does not fit in 64 bits;
/// that number is then the last token in `out`.
bool lexAsmLine(std::string_view line, std::vector<AsmTok>& out,
                std::string* error) {
  out.clear();
  std::size_t i = 0;
  auto peek = [&](std::size_t off = 0) {
    return i + off < line.size() ? line[i + off] : '\0';
  };
  while (i < line.size()) {
    char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Note: '#' is NOT a comment character here — it is a conventional
    // immediate prefix in operand syntax (e.g. "addi R1, #42").
    if (c == ';' || (c == '/' && peek(1) == '/')) break;
    unsigned col = static_cast<unsigned>(i + 1);
    if (isAlpha(c) || c == '_' || c == '.') {
      const std::size_t start = i;
      while (i < line.size() &&
             (isAlnum(line[i]) || line[i] == '_' || line[i] == '.'))
        ++i;
      AsmTok& t = out.emplace_back();
      t.col = col;
      t.text.assign(line.substr(start, i - start));
      continue;
    }
    if (isDigit(c)) {
      AsmTok& t = out.emplace_back();
      t.col = col;
      t.isNumber = true;
      std::string& digits = t.text;
      int base = 10;
      if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        base = 16;
        i += 2;
      } else if (c == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
        base = 2;
        i += 2;
      }
      while (i < line.size() && (isAlnum(line[i]) || line[i] == '_')) {
        if (line[i] != '_') digits += line[i];
        ++i;
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long v = std::strtoull(digits.c_str(), &end, base);
      if (digits.empty() || end != digits.c_str() + digits.size()) {
        if (error) *error = cat("bad number '", digits, "'");
        return false;
      }
      if (errno == ERANGE) {
        if (error)
          *error = cat("number '", digits, "' does not fit in 64 bits");
        return false;
      }
      t.number = static_cast<std::int64_t>(v);
      continue;
    }
    AsmTok& t = out.emplace_back();
    t.col = col;
    t.text.assign(1, c);
    ++i;
  }
  return true;
}

/// Two's-complement negation without signed overflow (-INT64_MIN wraps).
std::int64_t negate(std::int64_t v) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(v));
}

/// The asm tokens of a syntax literal ("]+" is two). A literal that does
/// not lex can never match: it becomes one empty token, and no token of a
/// lexed line is empty.
std::vector<std::string> lexLiteral(const std::string& literal) {
  std::vector<AsmTok> toks;
  if (!lexAsmLine(literal, toks, nullptr)) return {std::string()};
  std::vector<std::string> out;
  out.reserve(toks.size());
  for (auto& t : toks) out.push_back(std::move(t.text));
  return out;
}

Assembler::SyntaxLexemes lexSyntax(const std::vector<SyntaxItem>& syntax) {
  Assembler::SyntaxLexemes out(syntax.size());
  for (std::size_t i = 0; i < syntax.size(); ++i)
    if (syntax[i].isLiteral) out[i] = lexLiteral(syntax[i].literal);
  return out;
}

// --- parse-time value tree --------------------------------------------------------

/// A parsed (but possibly unresolved) parameter binding. Mirrors
/// DecodedParam, with label references left symbolic until pass 2.
struct ParamBinding {
  BitVector value;        ///< encoded value when !isLabel
  bool isLabel = false;
  std::string label;
  unsigned width = 0;     ///< encoding width (for label resolution)
  bool isSigned = false;  ///< immediate signedness (range checking)
  std::int64_t literal = 0;   ///< raw literal for range checking
  bool fromLiteral = false;
  int ntOption = -1;
  std::vector<ParamBinding> sub;
};

struct ParsedOp {
  unsigned fieldIndex = 0;
  unsigned opIndex = 0;
  std::vector<ParamBinding> params;
  unsigned effSize = 1;
};

struct ParsedLine {
  enum class Kind { Instruction, Org, Word, Dm } kind = Kind::Instruction;
  unsigned lineNo = 0;
  std::vector<ParsedOp> ops;          // Instruction
  std::uint64_t orgAddress = 0;       // Org
  BitVector rawWord;                  // Word
  std::uint64_t dmAddress = 0;        // Dm
  BitVector dmValue;                  // Dm
  std::uint64_t address = 0;          // assigned in pass 1
  unsigned sizeWords = 1;
};

// --- the assembler implementation ---------------------------------------------------

using LexemeTable = std::vector<std::vector<Assembler::SyntaxLexemes>>;

class Impl {
 public:
  Impl(const SignatureTable& sigs, const LexemeTable& opLexemes,
       const LexemeTable& ntLexemes, DiagnosticEngine& diags)
      : sigs_(sigs),
        machine_(sigs.machine()),
        opLexemes_(opLexemes),
        ntLexemes_(ntLexemes),
        diags_(diags) {}

  std::optional<AssembledProgram> run(std::string_view source) {
    std::vector<ParsedLine> lines;
    // ---- pass 1: parse, choose operations/options, lay out addresses ----
    std::uint64_t address = 0;
    unsigned lineNo = 0;
    for (std::string_view rawLine : splitLines(source)) {
      ++lineNo;
      lineNo_ = lineNo;
      std::string lexError;
      if (!lexAsmLine(rawLine, toks_, &lexError)) {
        pos_ = toks_.size() - 1;  // point at the malformed number
        error(lexError);
        return std::nullopt;
      }
      pos_ = 0;

      // Leading labels.
      while (toks_.size() >= pos_ + 2 && !toks_[pos_].isNumber &&
             toks_[pos_ + 1].text == ":" && isIdentTok(toks_[pos_])) {
        const std::string& name = toks_[pos_].text;
        if (symbols_.count(name)) {
          error(cat("duplicate label '", name, "'"));
          return std::nullopt;
        }
        symbols_[name] = address;
        pos_ += 2;
      }
      if (pos_ >= toks_.size()) continue;  // blank / label-only line

      ParsedLine line;
      line.lineNo = lineNo;
      line.address = address;
      if (toks_[pos_].text == ".org") {
        ++pos_;
        std::int64_t v;
        if (!expectNumber(v)) return std::nullopt;
        if (static_cast<std::uint64_t>(v) < address) {
          error(".org cannot move backwards");
          return std::nullopt;
        }
        address = static_cast<std::uint64_t>(v);
        // Re-point any labels defined on this same line at the new address.
        for (auto& [name, a] : symbols_)
          if (a == line.address) a = address;
        continue;
      }
      if (toks_[pos_].text == ".word") {
        ++pos_;
        std::int64_t v;
        if (!expectNumber(v)) return std::nullopt;
        line.kind = ParsedLine::Kind::Word;
        line.rawWord = BitVector(machine_.wordWidth,
                                 static_cast<std::uint64_t>(v));
        line.sizeWords = 1;
        address += 1;
      } else if (toks_[pos_].text == ".dm") {
        ++pos_;
        std::int64_t a, v;
        if (!expectNumber(a) || !expectNumber(v)) return std::nullopt;
        line.kind = ParsedLine::Kind::Dm;
        line.dmAddress = static_cast<std::uint64_t>(a);
        // Width comes from the data memory if present.
        const int dm = machine_.dataMemoryIndex();
        const unsigned dmWidth =
            dm >= 0 ? machine_.storages[dm].width : machine_.wordWidth;
        line.dmValue = BitVector::fromInt(dmWidth, v);
        line.sizeWords = 0;
      } else {
        if (!parseInstruction(line)) return std::nullopt;
        address += line.sizeWords;
      }
      if (pos_ != toks_.size()) {
        error(cat("trailing junk '", toks_[pos_].text, "'"));
        return std::nullopt;
      }
      lines.push_back(std::move(line));
    }

    // ---- pass 2: resolve labels, paint bits ----
    AssembledProgram prog;
    prog.words.assign(address, BitVector(machine_.wordWidth));
    for (auto& line : lines) {
      lineNo_ = line.lineNo;
      switch (line.kind) {
        case ParsedLine::Kind::Word:
          prog.words[line.address] = line.rawWord;
          break;
        case ParsedLine::Kind::Dm:
          prog.dataInit.emplace_back(line.dmAddress, line.dmValue);
          break;
        case ParsedLine::Kind::Instruction: {
          if (!emitInstruction(line, prog)) return std::nullopt;
          break;
        }
        case ParsedLine::Kind::Org:
          break;
      }
    }
    prog.symbols = std::move(symbols_);
    return prog;
  }

 private:
  const SignatureTable& sigs_;
  const Machine& machine_;
  const LexemeTable& opLexemes_;  // [field][op][item]
  const LexemeTable& ntLexemes_;  // [nt][option][item]
  DiagnosticEngine& diags_;
  std::map<std::string, std::uint64_t> symbols_;

  std::vector<AsmTok> toks_;
  std::size_t pos_ = 0;
  unsigned lineNo_ = 0;
  // Scratch reused from line to line: the operation chosen per field (-1
  // while the field is free), and one operation's parameter values.
  std::vector<int> choice_;
  std::vector<BitVector> paramValues_;

  static bool isIdentTok(const AsmTok& t) {
    return !t.isNumber && !t.text.empty() &&
           (isAlpha(t.text[0]) || t.text[0] == '_');
  }

  void error(std::string msg) {
    diags_.error({lineNo_, pos_ < toks_.size() ? toks_[pos_].col : 1u},
                 std::move(msg));
  }

  bool expectNumber(std::int64_t& out) {
    bool neg = false;
    if (pos_ < toks_.size() && toks_[pos_].text == "-") {
      neg = true;
      ++pos_;
    }
    if (pos_ >= toks_.size() || !toks_[pos_].isNumber) {
      error("expected a number");
      return false;
    }
    out = toks_[pos_].number;
    if (neg) out = negate(out);
    ++pos_;
    return true;
  }

  // --- instruction parsing -------------------------------------------------------

  bool parseInstruction(ParsedLine& line) {
    bool braced = false;
    if (toks_[pos_].text == "{") {
      braced = true;
      ++pos_;
    }
    choice_.assign(machine_.fields.size(), -1);
    line.ops.reserve(machine_.fields.size());
    for (;;) {
      ParsedOp op;
      if (!parseOneOp(op)) return false;
      choice_[op.fieldIndex] = int(op.opIndex);
      line.ops.push_back(std::move(op));
      if (braced && pos_ < toks_.size() && toks_[pos_].text == "|") {
        ++pos_;
        continue;
      }
      break;
    }
    if (braced) {
      if (pos_ >= toks_.size() || toks_[pos_].text != "}") {
        error("expected '}' or '|'");
        return false;
      }
      ++pos_;
    }

    // Fill the remaining fields with their nop and check constraints.
    for (std::size_t f = 0; f < machine_.fields.size(); ++f) {
      if (choice_[f] >= 0) continue;
      int nop = machine_.fields[f].nopIndex;
      if (nop < 0) {
        error(cat("no operation given for field '", machine_.fields[f].name,
                  "' and the field has no nop"));
        return false;
      }
      ParsedOp op;
      op.fieldIndex = static_cast<unsigned>(f);
      op.opIndex = static_cast<unsigned>(nop);
      op.effSize = machine_.fields[f].operations[nop].costs.size;
      choice_[f] = nop;
      line.ops.push_back(std::move(op));
    }
    if (const Constraint* c = machine_.firstViolatedConstraint(choice_)) {
      error(cat("instruction violates constraint: never ", c->text));
      return false;
    }
    line.sizeWords = 1;
    for (const auto& op : line.ops)
      line.sizeWords = std::max(line.sizeWords, op.effSize);
    return true;
  }

  /// Parses one "mnemonic operands" group, resolving the mnemonic to a
  /// (field, operation) pair. A "FIELD.op" spelling pins the field; a bare
  /// mnemonic takes the first free field (choice_) defining it whose
  /// operand syntax matches.
  bool parseOneOp(ParsedOp& out) {
    if (pos_ >= toks_.size() || !isIdentTok(toks_[pos_])) {
      error("expected an operation mnemonic");
      return false;
    }
    std::string_view mnemonic = toks_[pos_].text;
    std::string_view fieldName;
    if (auto dot = mnemonic.find('.'); dot != std::string_view::npos) {
      fieldName = mnemonic.substr(0, dot);
      mnemonic = mnemonic.substr(dot + 1);
    }
    ++pos_;

    const std::size_t savedPos = pos_;
    bool known = false;
    for (std::size_t f = 0; f < machine_.fields.size(); ++f) {
      const Field& field = machine_.fields[f];
      if (!fieldName.empty() && field.name != fieldName) continue;
      if (choice_[f] >= 0) continue;
      for (std::size_t o = 0; o < field.operations.size(); ++o) {
        const Operation& op = field.operations[o];
        if (op.name != mnemonic) continue;
        known = true;
        pos_ = savedPos;
        ParsedOp attempt;
        attempt.fieldIndex = unsigned(f);
        attempt.opIndex = unsigned(o);
        attempt.params.resize(op.params.size());
        attempt.effSize = op.costs.size;
        if (matchSyntax(op.syntax, opLexemes_[f][o], op.params,
                        attempt.params, attempt.effSize)) {
          out = std::move(attempt);
          return true;
        }
      }
    }
    pos_ = savedPos;
    if (!known) {
      error(cat("unknown operation '", toks_[pos_ - 1].text,
                "' (or its field is already occupied)"));
      return false;
    }
    error(cat("operands do not match the syntax of '", mnemonic, "'"));
    return false;
  }

  /// Matches a syntax pattern, whose literals lexed to `lexemes`, at the
  /// current cursor; fills bindings and adds option size extras to effSize.
  /// On failure the cursor is left wherever the mismatch occurred (callers
  /// save/restore for backtracking).
  bool matchSyntax(const std::vector<SyntaxItem>& syntax,
                   const Assembler::SyntaxLexemes& lexemes,
                   const std::vector<Param>& params,
                   std::vector<ParamBinding>& bindings, unsigned& effSize) {
    for (std::size_t i = 0; i < syntax.size(); ++i) {
      const SyntaxItem& item = syntax[i];
      if (item.isLiteral) {
        if (!matchLiteral(lexemes[i])) return false;
      } else {
        if (!matchParam(params[item.paramIndex], bindings[item.paramIndex],
                        effSize))
          return false;
      }
    }
    return true;
  }

  /// Matches a literal's lexemes one asm token at a time.
  bool matchLiteral(const std::vector<std::string>& lexemes) {
    for (const std::string& lexeme : lexemes) {
      if (pos_ >= toks_.size() || toks_[pos_].text != lexeme) return false;
      ++pos_;
    }
    return true;
  }

  bool matchParam(const Param& p, ParamBinding& out, unsigned& effSize) {
    if (p.kind == ParamKind::Token) {
      const TokenDef& tok = machine_.tokens[p.index];
      if (tok.kind == TokenKind::Enum) {
        if (pos_ >= toks_.size()) return false;
        auto v = tok.memberValue(toks_[pos_].text);
        if (!v) return false;
        ++pos_;
        out = ParamBinding{};
        out.value = BitVector(tok.width, *v);
        out.width = tok.width;
        return true;
      }
      // Immediate: number (optionally negated) or a label identifier.
      out = ParamBinding{};
      out.width = tok.width;
      out.isSigned = tok.isSigned;
      bool neg = false;
      std::size_t saved = pos_;
      if (pos_ < toks_.size() && toks_[pos_].text == "-") {
        neg = true;
        ++pos_;
      }
      if (pos_ < toks_.size() && toks_[pos_].isNumber) {
        std::int64_t v = toks_[pos_].number;
        if (neg) v = negate(v);
        ++pos_;
        out.fromLiteral = true;
        out.literal = v;
        out.value = BitVector::fromInt(tok.width, v);
        return true;
      }
      if (!neg && pos_ < toks_.size() && isIdentTok(toks_[pos_])) {
        out.isLabel = true;
        out.label = toks_[pos_].text;
        ++pos_;
        return true;
      }
      pos_ = saved;
      return false;
    }

    // Non-terminal: try every option and keep the LONGEST match, so that
    // "(A0)+" (post-increment) beats its prefix "(A0)" (indirect) no matter
    // how the options are ordered. Ties go to declaration order.
    const NonTerminal& nt = machine_.nonTerminals[p.index];
    std::size_t saved = pos_;
    bool found = false;
    std::size_t bestEnd = 0;
    ParamBinding best;
    unsigned bestExtra = 0;
    for (std::size_t o = 0; o < nt.options.size(); ++o) {
      pos_ = saved;
      const NtOption& opt = nt.options[o];
      ParamBinding attempt;
      attempt.ntOption = static_cast<int>(o);
      attempt.width = nt.returnWidth;
      attempt.sub.resize(opt.params.size());
      unsigned extra = 0;
      if (matchSyntax(opt.syntax, ntLexemes_[p.index][o], opt.params,
                      attempt.sub, extra) &&
          (!found || pos_ > bestEnd)) {
        found = true;
        bestEnd = pos_;
        best = std::move(attempt);
        bestExtra = extra + opt.extraCosts.size;
      }
    }
    if (found) {
      pos_ = bestEnd;
      effSize += bestExtra;
      out = std::move(best);
      return true;
    }
    pos_ = saved;
    return false;
  }

  // --- pass 2: bit painting --------------------------------------------------------

  /// Resolves a binding to its final encoded BitVector (labels -> addresses,
  /// non-terminals -> assembled return values). Returns false on error.
  bool resolveBinding(const Param& p, ParamBinding& b, BitVector& out) {
    if (b.ntOption >= 0) {
      const NonTerminal& nt = machine_.nonTerminals[p.index];
      const NtOption& opt = nt.options[b.ntOption];
      const Signature& sig = sigs_.ntOption(p.index, b.ntOption);
      std::vector<BitVector> subValues;
      subValues.reserve(opt.params.size());
      for (std::size_t i = 0; i < opt.params.size(); ++i) {
        BitVector v;
        if (!resolveBinding(opt.params[i], b.sub[i], v)) return false;
        subValues.push_back(std::move(v));
      }
      BitVector ret(nt.returnWidth);
      sig.assemble(ret, subValues);
      out = std::move(ret);
      return true;
    }
    if (b.isLabel) {
      auto it = symbols_.find(b.label);
      if (it == symbols_.end()) {
        error(cat("undefined label '", b.label, "'"));
        return false;
      }
      std::uint64_t addr = it->second;
      if (b.width < 64 && (addr >> b.width) != 0) {
        error(cat("label '", b.label, "' address ", addr,
                  " does not fit in ", b.width, " bits"));
        return false;
      }
      out = BitVector(b.width, addr);
      return true;
    }
    if (b.fromLiteral) {
      // Range check: unsigned immediates take [0, 2^w), signed immediates
      // take [-2^(w-1), 2^w) (the permissive upper bound admits hex
      // bit patterns for signed fields).
      std::int64_t v = b.literal;
      std::int64_t lo = b.isSigned ? -(std::int64_t{1} << (b.width - 1)) : 0;
      bool tooBig = b.width < 63 && v >= (std::int64_t{1} << b.width);
      if (v < lo || tooBig) {
        error(cat("immediate ", v, " out of range for a ", b.width, "-bit ",
                  b.isSigned ? "signed" : "unsigned", " field"));
        return false;
      }
    }
    out = b.value;
    return true;
  }

  bool emitInstruction(ParsedLine& line, AssembledProgram& prog) {
    const unsigned wordWidth = machine_.wordWidth;
    BitVector image(line.sizeWords * wordWidth);
    BitVector painted(line.sizeWords * wordWidth);

    for (auto& pop : line.ops) {
      const Operation& op =
          machine_.fields[pop.fieldIndex].operations[pop.opIndex];
      const Signature& sig = sigs_.operation(pop.fieldIndex, pop.opIndex);

      paramValues_.resize(op.params.size());
      for (std::size_t i = 0; i < op.params.size(); ++i)
        if (!resolveBinding(op.params[i], pop.params[i], paramValues_[i]))
          return false;

      // Conflict check: two operations of the instruction must not paint the
      // same bit (the constraints section should have excluded such pairs).
      // The error names the lowest clashing bit.
      const BitVector& owned = sig.ownedMask();
      for (unsigned i = 0; i < owned.numWords(); ++i) {
        if (std::uint64_t clash = owned.word(i) & painted.word(i)) {
          error(cat("operation '", op.name, "' sets instruction bit ",
                    64 * i + unsigned(std::countr_zero(clash)),
                    " already set by another field's operation; add a "
                    "constraint to forbid this combination"));
          return false;
        }
        painted.setWord(i, painted.word(i) | owned.word(i));
      }
      // No other operation has painted an owned bit, and assemble() writes
      // exactly the owned bits.
      sig.assemble(image, paramValues_);
    }

    for (unsigned w = 0; w < line.sizeWords; ++w)
      prog.words[line.address + w] =
          image.slice((w + 1) * wordWidth - 1, w * wordWidth);
    return true;
  }
};

}  // namespace

Assembler::Assembler(const SignatureTable& sigs)
    : sigs_(&sigs), machine_(&sigs.machine()) {
  opLexemes_.reserve(machine_->fields.size());
  for (const Field& field : machine_->fields) {
    std::vector<SyntaxLexemes>& ops = opLexemes_.emplace_back();
    ops.reserve(field.operations.size());
    for (const Operation& op : field.operations)
      ops.push_back(lexSyntax(op.syntax));
  }
  ntLexemes_.reserve(machine_->nonTerminals.size());
  for (const NonTerminal& nt : machine_->nonTerminals) {
    std::vector<SyntaxLexemes>& options = ntLexemes_.emplace_back();
    options.reserve(nt.options.size());
    for (const NtOption& opt : nt.options)
      options.push_back(lexSyntax(opt.syntax));
  }
}

std::optional<AssembledProgram> Assembler::assemble(
    std::string_view source, DiagnosticEngine& diags) const {
  return Impl(*sigs_, opLexemes_, ntLexemes_, diags).run(source);
}

}  // namespace isdl::sim
