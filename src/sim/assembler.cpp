#include "sim/assembler.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>

#include "support/ascii.h"
#include "support/strings.h"

namespace isdl::sim {

namespace {

// --- assembly micro-lexer -------------------------------------------------------

using ascii::is;

// Identifiers here may contain (and start with) '.': "EX.add", ".org".
constexpr std::uint8_t kAsmIdentStart = ascii::kIdentStart | ascii::kDot;
constexpr std::uint8_t kAsmIdentChar = ascii::kIdentChar | ascii::kDot;

struct AsmTok {
  /// The lexeme, viewing the line; a number's digits without its base
  /// prefix and '_' separators.
  std::string_view text;
  std::uint64_t number = 0;
  unsigned col = 0;  ///< first character, 1-based
  unsigned end = 0;  ///< column just past the last character
  bool isNumber = false;
};

/// Tokenizes one line of assembly: identifiers, numbers (decimal / 0x / 0b),
/// and single-character punctuation. Comments (';', '//') end the line.
/// Tokens view `line`, except the digits of a number written with '_'
/// separators, which are copied into `digits` (reserved at the line's
/// length first, so the views into it stay valid). Returns false on a
/// malformed number or one that does not fit in 64 bits; that number is
/// then the last token in `out`.
bool lexAsmLine(std::string_view line, std::vector<AsmTok>& out,
                std::string& digits, std::string* error) {
  out.clear();
  digits.clear();
  digits.reserve(line.size());
  const std::size_t n = line.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = line[i];
    if (is(c, ascii::kBlank)) {
      ++i;
      continue;
    }
    // Note: '#' is NOT a comment character here — it is a conventional
    // immediate prefix in operand syntax (e.g. "addi R1, #42").
    if (c == ';' || (c == '/' && i + 1 < n && line[i + 1] == '/')) break;
    AsmTok& t = out.emplace_back();
    t.col = static_cast<unsigned>(i + 1);
    if (is(c, kAsmIdentStart)) {
      const std::size_t start = i;
      while (i < n && is(line[i], kAsmIdentChar)) ++i;
      t.text = line.substr(start, i - start);
      t.end = static_cast<unsigned>(i + 1);
      continue;
    }
    if (!is(c, ascii::kDigit)) {
      t.text = line.substr(i++, 1);
      t.end = t.col + 1;
      continue;
    }
    t.isNumber = true;
    unsigned base = 10;
    if (c == '0' && i + 1 < n && (line[i + 1] == 'x' || line[i + 1] == 'X')) {
      base = 16;
      i += 2;
    } else if (c == '0' && i + 1 < n &&
               (line[i + 1] == 'b' || line[i + 1] == 'B')) {
      base = 2;
      i += 2;
    }
    const std::size_t start = i;
    while (i < n && is(line[i], ascii::kIdentChar)) ++i;
    t.text = line.substr(start, i - start);
    t.end = static_cast<unsigned>(i + 1);
    const ascii::Digits d(t.text, base);
    if (t.text.find('_') != std::string_view::npos) {
      const std::size_t at = digits.size();
      for (char ch : t.text)
        if (ch != '_') digits += ch;
      t.text = std::string_view(digits).substr(at);
    }
    // A run of digits of the base is its value, if that fits. strtoull
    // decides any other run, as it accepts some (a second "0x" prefix).
    std::uint64_t value = d.value;
    bool fits = !d.overflow;
    if (!d.any || d.bad) {
      const std::string text(t.text);
      errno = 0;
      char* end = nullptr;
      value = std::strtoull(text.c_str(), &end, int(base));
      if (text.empty() || end != text.c_str() + text.size()) {
        if (error) *error = cat("bad number '", text, "'");
        return false;
      }
      fits = errno != ERANGE;
    }
    if (!fits) {
      if (error) *error = cat("number '", t.text, "' does not fit in 64 bits");
      return false;
    }
    t.number = value;
  }
  return true;
}

/// Two's-complement negation without signed overflow (-INT64_MIN wraps).
std::int64_t negate(std::int64_t v) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(v));
}

bool isIdentTok(const AsmTok& t) {
  return !t.isNumber && !t.text.empty() &&
         is(t.text[0], ascii::kIdentStart);
}

}  // namespace

// --- the assembler implementation ---------------------------------------------------

/// One assembly of one source. Pass 1 parses each line into flat buffers:
/// the operation slots of every instruction, and the parameter bindings of
/// every slot and of every non-terminal option a binding selected. Pass 2
/// paints them into the output words.
class Assembler::Impl {
 public:
  Impl(const Assembler& tables, DiagnosticEngine& diags)
      : t_(tables),
        sigs_(*tables.sigs_),
        machine_(*tables.machine_),
        diags_(diags) {}

  std::optional<AssembledProgram> run(std::string_view source) {
    // Sized for an instruction of every field on every line, with a
    // binding per operation.
    const std::size_t numLines =
        std::size_t(std::count(source.begin(), source.end(), '\n')) + 1;
    lines_.reserve(numLines);
    ops_.reserve(numLines * machine_.fields.size());
    bindings_.reserve(numLines * machine_.fields.size());
    toks_.reserve(32);

    AssembledProgram prog;
    // ---- pass 1: parse, choose operations/options, lay out addresses ----
    // The location counter never passes the end of instruction memory, so
    // it cannot wrap and pass 2 never sizes an image the memory cannot
    // hold.
    const std::uint64_t depth = machine_.storages[machine_.imemIndex].depth;
    std::uint64_t address = 0;
    unsigned lineNo = 0;
    for (std::size_t start = 0; start <= source.size();) {
      std::size_t nl = source.find('\n', start);
      if (nl == std::string_view::npos) nl = source.size();
      const std::string_view rawLine = source.substr(start, nl - start);
      start = nl + 1;
      ++lineNo;
      lineNo_ = lineNo;
      std::string lexError;
      if (!lexAsmLine(rawLine, toks_, digits_, &lexError)) {
        pos_ = toks_.size() - 1;  // point at the malformed number
        error(lexError);
        return std::nullopt;
      }
      pos_ = 0;

      // Leading labels.
      while (toks_.size() >= pos_ + 2 && !toks_[pos_].isNumber &&
             toks_[pos_ + 1].text == ":" && isIdentTok(toks_[pos_])) {
        const std::string name(toks_[pos_].text);
        if (symbols_.count(name)) {
          error(cat("duplicate label '", name, "'"));
          return std::nullopt;
        }
        symbols_[name] = address;
        pos_ += 2;
      }
      if (pos_ >= toks_.size()) continue;  // blank / label-only line

      const std::size_t first = pos_;
      Line line;
      line.lineNo = lineNo;
      line.address = address;
      const std::string_view directive = toks_[pos_].text;
      if (directive == ".org") {
        const std::size_t operand = ++pos_;
        std::int64_t v;
        if (!expectNumber(v)) return std::nullopt;
        const std::uint64_t target = static_cast<std::uint64_t>(v);
        if (target < address) {
          pos_ = operand;
          error(".org cannot move backwards");
          return std::nullopt;
        }
        if (target > depth) {
          pos_ = operand;
          error(cat(".org ", target, " is past the end of instruction memory "
                    "(depth ", depth, ")"));
          return std::nullopt;
        }
        address = target;
        // Re-point any labels defined on this same line at the new address.
        for (auto& [name, a] : symbols_)
          if (a == line.address) a = address;
      } else if (directive == ".word") {
        ++pos_;
        std::int64_t v;
        if (!expectNumber(v)) return std::nullopt;
        line.isWord = true;
        line.word = static_cast<std::uint64_t>(v);
        line.sizeWords = 1;
      } else if (directive == ".dm") {
        ++pos_;
        std::int64_t a, v;
        if (!expectNumber(a) || !expectNumber(v)) return std::nullopt;
        // Width comes from the data memory if present.
        const int dm = machine_.dataMemoryIndex();
        const unsigned dmWidth =
            dm >= 0 ? machine_.storages[dm].width : machine_.wordWidth;
        prog.dataInit.emplace_back(static_cast<std::uint64_t>(a),
                                   BitVector::fromInt(dmWidth, v));
      } else if (!parseInstruction(line)) {
        return std::nullopt;
      }
      if (pos_ != toks_.size()) {
        error(cat("trailing junk '", toks_[pos_].text, "'"));
        return std::nullopt;
      }
      if (line.isWord || line.numOps != 0) {
        if (line.sizeWords > depth - address) {
          pos_ = first;
          error(cat(line.isWord ? ".word" : "instruction", " at address ",
                    address, " does not fit in instruction memory (depth ",
                    depth, ")"));
          return std::nullopt;
        }
        address += line.sizeWords;
        lines_.push_back(line);
      }
    }

    // ---- pass 2: resolve labels, paint bits ----
    prog.words.assign(address, BitVector(machine_.wordWidth));
    for (const Line& line : lines_) {
      lineNo_ = line.lineNo;
      if (line.isWord)
        prog.words[line.address] = BitVector(machine_.wordWidth, line.word);
      else if (!emitInstruction(line, prog))
        return std::nullopt;
    }
    prog.symbols = std::move(symbols_);
    return prog;
  }

 private:
  /// A parsed (but possibly unresolved) parameter binding, with label
  /// references left symbolic until pass 2.
  struct Binding {
    enum class Kind : std::uint8_t {
      None,     ///< the parameter appears in no syntax item
      Value,    ///< an enum member's value
      Literal,  ///< an immediate literal, range-checked in pass 2
      Label,    ///< a label, resolved in pass 2
      Option,   ///< a non-terminal option and its own bindings
    };
    Kind kind = Kind::None;
    unsigned option = 0;          ///< Option
    std::uint32_t firstSub = 0;   ///< Option: its bindings in bindings_
    unsigned col = 0;             ///< Literal, Label: where it is written
    std::uint64_t value = 0;      ///< Value; Literal: the int64 bits
    std::string_view label{};     ///< Label, viewing the source
  };

  /// One operation slot of an instruction; its parameters' bindings are
  /// bindings_[firstBinding, + the operation's parameter count).
  struct ParsedOp {
    unsigned fieldIndex = 0;
    unsigned opIndex = 0;
    std::uint32_t firstBinding = 0;
    unsigned effSize = 1;
    unsigned col = 0;  ///< the mnemonic's column; 0 for a filled-in nop
  };

  /// A line that emits words: an instruction (ops_[firstOp, + numOps)) or
  /// a .word directive.
  struct Line {
    unsigned lineNo = 0;
    std::uint64_t address = 0;  ///< assigned in pass 1
    unsigned sizeWords = 1;
    std::uint32_t firstOp = 0;
    std::uint32_t numOps = 0;
    bool isWord = false;
    std::uint64_t word = 0;  ///< .word
  };

  const Assembler& t_;
  const SignatureTable& sigs_;
  const Machine& machine_;
  DiagnosticEngine& diags_;
  std::map<std::string, std::uint64_t> symbols_;
  std::vector<Line> lines_;
  std::vector<ParsedOp> ops_;
  std::vector<Binding> bindings_;

  std::vector<AsmTok> toks_;
  std::string digits_;  ///< separated numbers' digits, for toks_
  std::size_t pos_ = 0;
  unsigned lineNo_ = 0;
  // Scratch reused from line to line: the operation chosen per field (-1
  // while the field is free), the parameter values being painted (an
  // operation's first, then those of the options they select), the
  // instruction bits painted so far, and the image of a multi-word
  // instruction.
  std::vector<int> choice_;
  std::vector<BitVector> values_;
  BitVector painted_;
  BitVector image_;

  /// At the cursor's token, or just past the line's last token.
  void error(std::string msg) {
    error(pos_ < toks_.size() ? toks_[pos_].col
          : toks_.empty()     ? 1u
                              : toks_.back().end,
          std::move(msg));
  }

  void error(unsigned col, std::string msg) {
    diags_.error({lineNo_, col}, std::move(msg));
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
    out = static_cast<std::int64_t>(toks_[pos_].number);
    if (neg) out = negate(out);
    ++pos_;
    return true;
  }

  /// Appends `n` unbound parameter slots; returns the first.
  std::uint32_t allocBindings(std::size_t n) {
    const std::uint32_t first = std::uint32_t(bindings_.size());
    bindings_.resize(first + n);
    return first;
  }

  // --- instruction parsing -------------------------------------------------------

  bool parseInstruction(Line& line) {
    bool braced = false;
    if (toks_[pos_].text == "{") {
      braced = true;
      ++pos_;
    }
    const std::size_t numFields = machine_.fields.size();
    choice_.assign(numFields, -1);
    line.firstOp = std::uint32_t(ops_.size());
    for (;;) {
      if (!parseOneOp()) return false;
      choice_[ops_.back().fieldIndex] = int(ops_.back().opIndex);
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
    for (std::size_t f = 0; f < numFields; ++f) {
      if (choice_[f] >= 0) continue;
      const int nop = machine_.fields[f].nopIndex;
      if (nop < 0) {
        error(cat("no operation given for field '", machine_.fields[f].name,
                  "' and the field has no nop"));
        return false;
      }
      const Operation& op = machine_.fields[f].operations[nop];
      ops_.push_back({.fieldIndex = unsigned(f),
                      .opIndex = unsigned(nop),
                      .firstBinding = allocBindings(op.params.size()),
                      .effSize = op.costs.size});
      choice_[f] = nop;
    }
    if (const Constraint* c = machine_.firstViolatedConstraint(choice_)) {
      // Point at the last operation written that the constraint names.
      unsigned col = ops_[line.firstOp].col;
      for (std::uint32_t i = line.firstOp; i < ops_.size(); ++i)
        if (std::ranges::count(c->ops, OpRef{ops_[i].fieldIndex,
                                              ops_[i].opIndex}))
          col = std::max(col, ops_[i].col);
      error(col, cat("instruction violates constraint: never ", c->text));
      return false;
    }
    line.numOps = std::uint32_t(ops_.size()) - line.firstOp;
    line.sizeWords = 1;
    for (std::uint32_t i = line.firstOp; i < ops_.size(); ++i)
      line.sizeWords = std::max(line.sizeWords, ops_[i].effSize);
    return true;
  }

  /// Parses one "mnemonic operands" group, resolving the mnemonic to a
  /// (field, operation) pair, and appends it to ops_. A "FIELD.op" spelling
  /// pins the field; a bare mnemonic takes the first free field (choice_)
  /// defining it whose operand syntax matches.
  bool parseOneOp() {
    if (pos_ >= toks_.size() || !isIdentTok(toks_[pos_])) {
      error("expected an operation mnemonic");
      return false;
    }
    const unsigned col = toks_[pos_].col;
    std::string_view mnemonic = toks_[pos_].text;
    std::string_view fieldName;
    if (auto dot = mnemonic.find('.'); dot != std::string_view::npos) {
      fieldName = mnemonic.substr(0, dot);
      mnemonic = mnemonic.substr(dot + 1);
    }
    ++pos_;

    const std::size_t savedPos = pos_;
    bool known = false;
    const Range cands = t_.candidates(mnemonic);
    for (std::uint32_t c = cands.first; c < cands.last; ++c) {
      const auto [f, o] = t_.candidates_[c];
      const Field& field = machine_.fields[f];
      if (!fieldName.empty() && field.name != fieldName) continue;
      if (choice_[f] >= 0) continue;
      known = true;
      pos_ = savedPos;
      const Operation& op = field.operations[o];
      const std::size_t mark = bindings_.size();
      ParsedOp attempt{.fieldIndex = f,
                       .opIndex = o,
                       .firstBinding = allocBindings(op.params.size()),
                       .effSize = op.costs.size,
                       .col = col};
      if (matchSyntax(t_.opPattern(f, o), op.params, attempt.firstBinding,
                      attempt.effSize)) {
        ops_.push_back(attempt);
        return true;
      }
      bindings_.resize(mark);
    }
    pos_ = savedPos;
    if (!known) {
      error(col, cat("unknown operation '", toks_[pos_ - 1].text,
                     "' (or its field is already occupied)"));
      return false;
    }
    error(cat("operands do not match the syntax of '", mnemonic, "'"));
    return false;
  }

  /// Matches a syntax pattern at the current cursor; binds parameter i to
  /// bindings_[first + i] and adds option size extras to effSize. On failure
  /// the cursor is left wherever the mismatch occurred (callers save/restore
  /// for backtracking).
  bool matchSyntax(Range pattern, const std::vector<Param>& params,
                   std::uint32_t first, unsigned& effSize) {
    for (std::uint32_t i = pattern.first; i < pattern.last; ++i) {
      const Item& item = t_.items_[i];
      if (!item.isParam) {
        if (!matchLiteral(item.lexemes)) return false;
      } else if (!matchParam(params[item.param], first + item.param,
                             effSize)) {
        return false;
      }
    }
    return true;
  }

  /// Matches a literal's lexemes one asm token at a time.
  bool matchLiteral(Range lexemes) {
    for (std::uint32_t i = lexemes.first; i < lexemes.last; ++i) {
      if (pos_ >= toks_.size() || toks_[pos_].text != t_.lexemes_[i])
        return false;
      ++pos_;
    }
    return true;
  }

  bool matchParam(const Param& p, std::uint32_t slot, unsigned& effSize) {
    if (p.kind == ParamKind::Token) {
      const TokenDef& tok = machine_.tokens[p.index];
      if (tok.kind == TokenKind::Enum) {
        if (pos_ >= toks_.size()) return false;
        auto v = t_.memberValue(p.index, toks_[pos_].text);
        if (!v) return false;
        ++pos_;
        bindings_[slot] = {.kind = Binding::Kind::Value, .value = *v};
        return true;
      }
      // Immediate: number (optionally negated) or a label identifier.
      bool neg = false;
      const std::size_t saved = pos_;
      const unsigned col = pos_ < toks_.size() ? toks_[pos_].col : 0;
      if (pos_ < toks_.size() && toks_[pos_].text == "-") {
        neg = true;
        ++pos_;
      }
      if (pos_ < toks_.size() && toks_[pos_].isNumber) {
        std::int64_t v = static_cast<std::int64_t>(toks_[pos_].number);
        if (neg) v = negate(v);
        ++pos_;
        bindings_[slot] = {.kind = Binding::Kind::Literal,
                           .col = col,
                           .value = static_cast<std::uint64_t>(v)};
        return true;
      }
      if (!neg && pos_ < toks_.size() && isIdentTok(toks_[pos_])) {
        bindings_[slot] = {.kind = Binding::Kind::Label,
                           .col = col,
                           .label = toks_[pos_].text};
        ++pos_;
        return true;
      }
      pos_ = saved;
      return false;
    }

    // Non-terminal: try every option and keep the LONGEST match, so that
    // "(A0)+" (post-increment) beats its prefix "(A0)" (indirect) no matter
    // how the options are ordered. Ties go to declaration order. A failed
    // attempt's bindings are dropped; a superseded best's stay unused.
    const NonTerminal& nt = machine_.nonTerminals[p.index];
    const std::size_t saved = pos_;
    bool found = false;
    std::size_t bestEnd = 0;
    Binding best{.kind = Binding::Kind::Option};
    unsigned bestExtra = 0;
    for (unsigned o = 0; o < nt.options.size(); ++o) {
      pos_ = saved;
      const NtOption& opt = nt.options[o];
      const std::size_t mark = bindings_.size();
      const std::uint32_t sub = allocBindings(opt.params.size());
      unsigned extra = 0;
      if (matchSyntax(t_.ntPattern(p.index, o), opt.params, sub, extra) &&
          (!found || pos_ > bestEnd)) {
        found = true;
        bestEnd = pos_;
        best.option = o;
        best.firstSub = sub;
        bestExtra = extra + opt.extraCosts.size;
      } else {
        bindings_.resize(mark);
      }
    }
    if (found) {
      pos_ = bestEnd;
      effSize += bestExtra;
      bindings_[slot] = best;
      return true;
    }
    pos_ = saved;
    return false;
  }

  // --- pass 2: bit painting --------------------------------------------------------

  /// Resolves the binding bindings_[slot] of parameter `p` to its final
  /// encoded value in values_[at] (labels -> addresses, non-terminals ->
  /// assembled return values). Returns false on error.
  bool resolve(const Param& p, std::uint32_t slot, std::size_t at) {
    const Binding& b = bindings_[slot];
    switch (b.kind) {
      case Binding::Kind::None: values_[at] = BitVector(); return true;
      case Binding::Kind::Value:
        values_[at] = BitVector(machine_.tokens[p.index].width, b.value);
        return true;
      case Binding::Kind::Option: {
        const NonTerminal& nt = machine_.nonTerminals[p.index];
        const NtOption& opt = nt.options[b.option];
        const std::size_t base = values_.size();
        values_.resize(base + opt.params.size());
        for (std::size_t i = 0; i < opt.params.size(); ++i)
          if (!resolve(opt.params[i], b.firstSub + std::uint32_t(i), base + i))
            return false;
        BitVector ret(nt.returnWidth);
        sigs_.ntOption(p.index, b.option)
            .assemble(ret, {values_.data() + base, opt.params.size()});
        values_[at] = std::move(ret);
        values_.resize(base);
        return true;
      }
      case Binding::Kind::Label: {
        const unsigned width = machine_.tokens[p.index].width;
        auto it = symbols_.find(std::string(b.label));
        if (it == symbols_.end()) {
          error(b.col, cat("undefined label '", b.label, "'"));
          return false;
        }
        std::uint64_t addr = it->second;
        if (width < 64 && (addr >> width) != 0) {
          error(b.col, cat("label '", b.label, "' address ", addr,
                           " does not fit in ", width, " bits"));
          return false;
        }
        values_[at] = BitVector(width, addr);
        return true;
      }
      case Binding::Kind::Literal: break;
    }
    // Range check: unsigned immediates take [0, 2^w), signed immediates
    // take [-2^(w-1), 2^w) (the permissive upper bound admits hex bit
    // patterns for signed fields).
    const TokenDef& tok = machine_.tokens[p.index];
    const unsigned width = tok.width;
    const std::int64_t v = static_cast<std::int64_t>(b.value);
    std::int64_t lo = tok.isSigned ? -(std::int64_t{1} << (width - 1)) : 0;
    bool tooBig = width < 63 && v >= (std::int64_t{1} << width);
    if (v < lo || tooBig) {
      error(b.col, cat("immediate ", v, " out of range for a ", width, "-bit ",
                       tok.isSigned ? "signed" : "unsigned", " field"));
      return false;
    }
    values_[at] = BitVector::fromInt(width, v);
    return true;
  }

  /// Paints an instruction: one word straight into the output, a longer
  /// one into an image that is then cut into words.
  bool emitInstruction(const Line& line, AssembledProgram& prog) {
    const unsigned wordWidth = machine_.wordWidth;
    const unsigned width = line.sizeWords * wordWidth;
    BitVector* image = &prog.words[line.address];
    if (line.sizeWords != 1) {
      image_ = BitVector(width);
      image = &image_;
    }
    if (painted_.width() != width) painted_ = BitVector(width);
    for (unsigned i = 0; i < painted_.numWords(); ++i) painted_.setWord(i, 0);

    for (std::uint32_t k = line.firstOp; k < line.firstOp + line.numOps; ++k) {
      const ParsedOp& pop = ops_[k];
      const Operation& op =
          machine_.fields[pop.fieldIndex].operations[pop.opIndex];
      const Signature& sig = sigs_.operation(pop.fieldIndex, pop.opIndex);

      values_.resize(op.params.size());
      for (std::size_t i = 0; i < op.params.size(); ++i)
        if (!resolve(op.params[i], pop.firstBinding + std::uint32_t(i), i))
          return false;

      // Conflict check: two operations of the instruction must not paint the
      // same bit (the constraints section should have excluded such pairs).
      // The error names the lowest clashing bit.
      const BitVector& owned = sig.ownedMask();
      for (unsigned i = 0; i < owned.numWords(); ++i) {
        if (std::uint64_t clash = owned.word(i) & painted_.word(i)) {
          error(pop.col, cat("operation '", op.name, "' sets instruction bit ",
                             64 * i + unsigned(std::countr_zero(clash)),
                             " already set by another field's operation; "
                             "add a constraint to forbid this combination"));
          return false;
        }
        painted_.setWord(i, painted_.word(i) | owned.word(i));
      }
      // No other operation has painted an owned bit, and assemble() writes
      // exactly the owned bits.
      sig.assemble(*image, values_);
    }

    if (line.sizeWords != 1)
      for (unsigned w = 0; w < line.sizeWords; ++w)
        prog.words[line.address + w] =
            image_.slice((w + 1) * wordWidth - 1, w * wordWidth);
    return true;
  }
};

Assembler::Range Assembler::addPattern(const std::vector<SyntaxItem>& syntax) {
  const Range pattern{std::uint32_t(items_.size()),
                      std::uint32_t(items_.size() + syntax.size())};
  std::vector<AsmTok> toks;
  std::string digits;
  for (const SyntaxItem& item : syntax) {
    Item& it = items_.emplace_back();
    it.isParam = !item.isLiteral;
    it.param = item.paramIndex;
    if (!item.isLiteral) continue;
    // The asm tokens of the literal ("]+" is two). A literal that does not
    // lex can never match: it becomes one empty lexeme, and no token of a
    // lexed line is empty.
    it.lexemes.first = std::uint32_t(lexemes_.size());
    if (lexAsmLine(item.literal, toks, digits, nullptr)) {
      for (const AsmTok& t : toks) lexemes_.emplace_back(t.text);
    } else {
      lexemes_.emplace_back();
    }
    it.lexemes.last = std::uint32_t(lexemes_.size());
  }
  return pattern;
}

Assembler::Assembler(const SignatureTable& sigs)
    : sigs_(&sigs), machine_(&sigs.machine()) {
  const Machine& m = *machine_;
  std::size_t numOps = 0, numItems = 0, numOptions = 0;
  for (const Field& field : m.fields)
    for (const Operation& op : field.operations) {
      ++numOps;
      numItems += op.syntax.size();
    }
  for (const NonTerminal& nt : m.nonTerminals)
    for (const NtOption& opt : nt.options) {
      ++numOptions;
      numItems += opt.syntax.size();
    }
  items_.reserve(numItems);
  lexemes_.reserve(numItems);
  opPatterns_.reserve(numOps);
  ntPatterns_.reserve(numOptions);
  opBase_.reserve(m.fields.size());
  ntBase_.reserve(m.nonTerminals.size());
  candidates_.reserve(numOps);

  for (unsigned f = 0; f < m.fields.size(); ++f) {
    opBase_.push_back(std::uint32_t(opPatterns_.size()));
    for (const Operation& op : m.fields[f].operations)
      opPatterns_.push_back(addPattern(op.syntax));
  }
  for (const NonTerminal& nt : m.nonTerminals) {
    ntBase_.push_back(std::uint32_t(ntPatterns_.size()));
    for (const NtOption& opt : nt.options)
      ntPatterns_.push_back(addPattern(opt.syntax));
  }

  // The mnemonic index: every operation by name, in field order and then
  // operation order, the order a line's mnemonic tries them in.
  for (unsigned f = 0; f < m.fields.size(); ++f)
    for (unsigned o = 0; o < m.fields[f].operations.size(); ++o)
      candidates_.push_back({f, o});
  auto nameOf = [&](const OpRef& r) -> const std::string& {
    return m.fields[r.fieldIndex].operations[r.opIndex].name;
  };
  std::stable_sort(
      candidates_.begin(), candidates_.end(),
      [&](const OpRef& a, const OpRef& b) { return nameOf(a) < nameOf(b); });
  std::size_t entries = candidates_.size();
  for (const TokenDef& tok : m.tokens) entries += tok.members.size();
  spellings_.resize(std::bit_ceil(std::max<std::size_t>(16, 2 * entries)));
  for (std::uint32_t i = 0, end; i < candidates_.size(); i = end) {
    for (end = i + 1; end < candidates_.size() &&
                      nameOf(candidates_[end]) == nameOf(candidates_[i]);)
      ++end;
    addSpelling(0, nameOf(candidates_[i]), i | std::uint64_t(end) << 32);
  }
  for (unsigned t = 0; t < m.tokens.size(); ++t)
    for (const TokenMember& member : m.tokens[t].members)
      addSpelling(t + 1, member.syntax, member.value);
}

void Assembler::addSpelling(std::uint32_t scope, std::string_view key,
                            std::uint64_t value) {
  // No token of a line is empty, so an empty spelling never matches.
  Spelling& s = spellings_[probe(scope, key)];
  if (s.key.empty() && !key.empty()) s = {key, scope, value};
}

std::size_t Assembler::probe(std::uint32_t scope, std::string_view key) const {
  // FNV-1a over the scope and the key's bytes.
  std::uint64_t h = 0xcbf29ce484222325u ^ scope;
  for (char c : key) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3u;
  const std::size_t mask = spellings_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Spelling& s = spellings_[i];
    if (s.key.empty() || (s.scope == scope && s.key == key)) return i;
  }
}

std::optional<AssembledProgram> Assembler::assemble(
    std::string_view source, DiagnosticEngine& diags) const {
  return Impl(*this, diags).run(source);
}

}  // namespace isdl::sim
