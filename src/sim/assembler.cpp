#include "sim/assembler.h"

#include <cctype>

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

/// Tokenizes one line of assembly: identifiers, numbers (decimal / 0x / 0b),
/// and single-character punctuation. Comments (';', '#', '//') end the line.
/// Returns false on a malformed number.
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
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.') {
      AsmTok t;
      t.col = col;
      while (i < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[i])) ||
              line[i] == '_' || line[i] == '.'))
        t.text += line[i++];
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      AsmTok t;
      t.col = col;
      t.isNumber = true;
      std::string digits;
      int base = 10;
      if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        base = 16;
        i += 2;
      } else if (c == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
        base = 2;
        i += 2;
      }
      while (i < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[i])) ||
              line[i] == '_')) {
        if (line[i] != '_') digits += line[i];
        ++i;
      }
      t.text = digits;
      errno = 0;
      char* end = nullptr;
      unsigned long long v = std::strtoull(digits.c_str(), &end, base);
      if (digits.empty() || end != digits.c_str() + digits.size()) {
        if (error) *error = cat("bad number '", digits, "'");
        return false;
      }
      t.number = static_cast<std::int64_t>(v);
      out.push_back(std::move(t));
      continue;
    }
    AsmTok t;
    t.col = col;
    t.text = std::string(1, c);
    ++i;
    out.push_back(std::move(t));
  }
  return true;
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

class Impl {
 public:
  Impl(const SignatureTable& sigs, DiagnosticEngine& diags)
      : sigs_(sigs), machine_(sigs.machine()), diags_(diags) {}

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
    prog.symbols = symbols_;
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
    return prog;
  }

 private:
  const SignatureTable& sigs_;
  const Machine& machine_;
  DiagnosticEngine& diags_;
  std::map<std::string, std::uint64_t> symbols_;

  std::vector<AsmTok> toks_;
  std::size_t pos_ = 0;
  unsigned lineNo_ = 0;

  static bool isIdentTok(const AsmTok& t) {
    return !t.isNumber && !t.text.empty() &&
           (std::isalpha(static_cast<unsigned char>(t.text[0])) ||
            t.text[0] == '_');
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
    if (neg) out = -out;
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
    std::vector<bool> fieldUsed(machine_.fields.size(), false);
    for (;;) {
      ParsedOp op;
      if (!parseOneOp(fieldUsed, op)) return false;
      fieldUsed[op.fieldIndex] = true;
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
    std::vector<int> choice(machine_.fields.size(), -1);
    for (const auto& op : line.ops) choice[op.fieldIndex] = int(op.opIndex);
    for (std::size_t f = 0; f < machine_.fields.size(); ++f) {
      if (choice[f] >= 0) continue;
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
      choice[f] = nop;
      line.ops.push_back(std::move(op));
    }
    if (const Constraint* c = machine_.firstViolatedConstraint(choice)) {
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
  /// mnemonic takes the first unused field defining it whose operand syntax
  /// matches.
  bool parseOneOp(const std::vector<bool>& fieldUsed, ParsedOp& out) {
    if (pos_ >= toks_.size() || !isIdentTok(toks_[pos_])) {
      error("expected an operation mnemonic");
      return false;
    }
    std::string mnemonic = toks_[pos_].text;
    std::string fieldName;
    if (auto dot = mnemonic.find('.'); dot != std::string::npos) {
      fieldName = mnemonic.substr(0, dot);
      mnemonic = mnemonic.substr(dot + 1);
    }
    ++pos_;

    std::vector<std::pair<unsigned, unsigned>> candidates;
    for (std::size_t f = 0; f < machine_.fields.size(); ++f) {
      const Field& field = machine_.fields[f];
      if (!fieldName.empty() && field.name != fieldName) continue;
      if (fieldUsed[f]) continue;
      for (std::size_t o = 0; o < field.operations.size(); ++o)
        if (field.operations[o].name == mnemonic)
          candidates.emplace_back(unsigned(f), unsigned(o));
    }
    if (candidates.empty()) {
      error(cat("unknown operation '",
                fieldName.empty() ? mnemonic : fieldName + "." + mnemonic,
                "' (or its field is already occupied)"));
      return false;
    }

    std::size_t savedPos = pos_;
    for (auto [f, o] : candidates) {
      pos_ = savedPos;
      const Operation& op = machine_.fields[f].operations[o];
      ParsedOp attempt;
      attempt.fieldIndex = f;
      attempt.opIndex = o;
      attempt.params.resize(op.params.size());
      attempt.effSize = op.costs.size;
      if (matchSyntax(op.syntax, op.params, attempt.params, attempt.effSize)) {
        out = std::move(attempt);
        return true;
      }
    }
    pos_ = savedPos;
    error(cat("operands do not match the syntax of '", mnemonic, "'"));
    return false;
  }

  /// Matches a syntax pattern at the current cursor; fills bindings and adds
  /// option size extras to effSize. On failure the cursor is left wherever
  /// the mismatch occurred (callers save/restore for backtracking).
  bool matchSyntax(const std::vector<SyntaxItem>& syntax,
                   const std::vector<Param>& params,
                   std::vector<ParamBinding>& bindings, unsigned& effSize) {
    for (const auto& item : syntax) {
      if (item.isLiteral) {
        if (!matchLiteral(item.literal)) return false;
      } else {
        if (!matchParam(params[item.paramIndex], bindings[item.paramIndex],
                        effSize))
          return false;
      }
    }
    return true;
  }

  /// Matches the lexemes of `literal` one asm token at a time ("]+", for
  /// example, is two tokens).
  bool matchLiteral(const std::string& literal) {
    std::vector<AsmTok> litToks;
    if (!lexAsmLine(literal, litToks, nullptr)) return false;
    for (const auto& lt : litToks) {
      if (pos_ >= toks_.size() || toks_[pos_].text != lt.text) return false;
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
        if (neg) v = -v;
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
      if (matchSyntax(opt.syntax, opt.params, attempt.sub, extra) &&
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

      std::vector<BitVector> paramValues;
      paramValues.reserve(op.params.size());
      for (std::size_t i = 0; i < op.params.size(); ++i) {
        BitVector v;
        if (!resolveBinding(op.params[i], pop.params[i], v)) return false;
        paramValues.push_back(std::move(v));
      }

      // Conflict check: two operations of the instruction must not paint the
      // same bit (the constraints section should have excluded such pairs).
      BitVector opMask = sig.careMask().or_(sig.paramMask());
      for (unsigned bit = 0; bit < opMask.width(); ++bit) {
        if (opMask.bit(bit) && painted.bit(bit)) {
          error(cat("operation '", op.name, "' sets instruction bit ", bit,
                    " already set by another field's operation; add a "
                    "constraint to forbid this combination"));
          return false;
        }
      }
      BitVector opImage(opMask.width());
      sig.assemble(opImage, paramValues);
      for (unsigned bit = 0; bit < opMask.width(); ++bit) {
        if (opMask.bit(bit)) {
          image.setBit(bit, opImage.bit(bit));
          painted.setBit(bit, true);
        }
      }
    }

    for (unsigned w = 0; w < line.sizeWords; ++w)
      prog.words[line.address + w] =
          image.slice((w + 1) * wordWidth - 1, w * wordWidth);
    return true;
  }
};

}  // namespace

Assembler::Assembler(const SignatureTable& sigs)
    : sigs_(&sigs), machine_(&sigs.machine()) {}

std::optional<AssembledProgram> Assembler::assemble(
    std::string_view source, DiagnosticEngine& diags) const {
  return Impl(*sigs_, diags).run(source);
}

}  // namespace isdl::sim
