#include "testing/programgen.h"

#include <functional>

#include "support/strings.h"

namespace isdl::testing {

bool operationTouchesPc(const Machine& m, const Operation& op) {
  bool touches = false;
  auto scan = [&](const rtl::Stmt& s, auto&& self) -> void {
    if (s.kind == rtl::StmtKind::Assign) {
      if (!s.dest.isParam &&
          static_cast<int>(s.dest.storageIndex) == m.pcIndex)
        touches = true;
      return;
    }
    for (const auto& t : s.thenStmts) self(*t, self);
    for (const auto& t : s.elseStmts) self(*t, self);
  };
  for (const auto& s : op.action) scan(*s, scan);
  for (const auto& s : op.sideEffects) scan(*s, scan);
  return touches;
}

namespace {
bool isHaltOperation(const Machine& m, std::size_t field, std::size_t op) {
  return m.haltOp && m.haltOp->fieldIndex == field && m.haltOp->opIndex == op;
}
}  // namespace

sim::AssembledProgram randomEncodedProgram(const Machine& m,
                                           const sim::SignatureTable& sigs,
                                           std::mt19937& rng,
                                           unsigned length) {
  // Random encoded value for one parameter (recursing into non-terminals).
  std::function<BitVector(const Param&)> randomParam =
      [&](const Param& p) -> BitVector {
    if (p.kind == ParamKind::Token) {
      const TokenDef& tok = m.tokens[p.index];
      if (tok.kind == TokenKind::Enum) {
        const TokenMember& member = tok.members[rng() % tok.members.size()];
        return BitVector(tok.width, member.value);
      }
      return BitVector(tok.width, rng());
    }
    const NonTerminal& nt = m.nonTerminals[p.index];
    unsigned o = unsigned(rng() % nt.options.size());
    const NtOption& opt = nt.options[o];
    std::vector<BitVector> sub;
    for (const auto& q : opt.params) sub.push_back(randomParam(q));
    BitVector ret(nt.returnWidth);
    sigs.ntOption(p.index, o).assemble(ret, sub);
    return ret;
  };

  sim::AssembledProgram prog;
  const unsigned wordWidth = m.wordWidth;
  for (unsigned i = 0; i < length; ++i) {
    // Retry until a constraint-satisfying, conflict-free combination lands.
    for (int attempt = 0; attempt < 100; ++attempt) {
      std::vector<int> choice(m.fields.size());
      bool ok = true;
      for (std::size_t f = 0; f < m.fields.size() && ok; ++f) {
        for (int tries = 0; tries < 50; ++tries) {
          int o = int(rng() % m.fields[f].operations.size());
          const Operation& op = m.fields[f].operations[o];
          if (isHaltOperation(m, f, o) || operationTouchesPc(m, op) ||
              op.costs.size != 1)
            continue;
          choice[f] = o;
          goto fieldDone;
        }
        ok = false;
      fieldDone:;
      }
      if (!ok || !m.satisfiesConstraints(choice)) continue;

      // Paint, rejecting cross-field bit conflicts.
      BitVector word(wordWidth);
      BitVector painted(wordWidth);
      bool conflict = false;
      for (std::size_t f = 0; f < m.fields.size() && !conflict; ++f) {
        const Operation& op = m.fields[f].operations[choice[f]];
        const sim::Signature& sig =
            sigs.operation(unsigned(f), unsigned(choice[f]));
        const BitVector& mask = sig.ownedMask();
        if (!mask.and_(painted).isZero()) {
          conflict = true;
          break;
        }
        std::vector<BitVector> params;
        for (const auto& p : op.params) params.push_back(randomParam(p));
        sig.assemble(word, params);
        painted = painted.or_(mask);
      }
      if (conflict) continue;
      prog.words.push_back(word);
      break;
    }
  }
  // Terminate: assemble the halt instruction via nops + halt op.
  {
    BitVector word(wordWidth);
    for (std::size_t f = 0; f < m.fields.size(); ++f) {
      int o = m.haltOp && m.haltOp->fieldIndex == f
                  ? static_cast<int>(m.haltOp->opIndex)
                  : m.fields[f].nopIndex;
      if (o < 0) continue;
      sigs.operation(unsigned(f), unsigned(o)).assemble(word, {});
    }
    prog.words.push_back(word);
  }
  return prog;
}

namespace {

/// Renders one parameter value as assembly text (recursing through
/// non-terminal option syntax). Atoms are space-separated; the assembler's
/// lexer re-tokenizes, so spacing is free.
std::string renderParam(const Machine& m, const Param& p,
                        std::mt19937_64& rng) {
  if (p.kind == ParamKind::Token) {
    const TokenDef& tok = m.tokens[p.index];
    if (tok.kind == TokenKind::Enum)
      return tok.members[rng() % tok.members.size()].syntax;
    // Immediate: any value in the token's literal range, rendered decimal.
    const unsigned w = tok.width >= 64 ? 63 : tok.width;
    const std::uint64_t mask = (std::uint64_t(1) << w) - 1;
    std::uint64_t bits = rng() & mask;
    if (tok.isSigned) {
      std::int64_t v = std::int64_t(bits << (64 - w)) >> (64 - w);
      return std::to_string(v);
    }
    return std::to_string(bits);
  }
  const NonTerminal& nt = m.nonTerminals[p.index];
  const NtOption& opt = nt.options[rng() % nt.options.size()];
  std::vector<std::string> atoms;
  for (const auto& item : opt.syntax)
    atoms.push_back(item.isLiteral
                        ? item.literal
                        : renderParam(m, opt.params[item.paramIndex], rng));
  return join(atoms, " ");
}

/// Renders one operation instance: field-qualified mnemonic + operands.
std::string renderOperation(const Machine& m, unsigned f, const Operation& op,
                            std::mt19937_64& rng) {
  std::string out = cat(m.fields[f].name, ".", op.name);
  for (const auto& item : op.syntax) {
    out += ' ';
    out += item.isLiteral ? item.literal
                          : renderParam(m, op.params[item.paramIndex], rng);
  }
  return out;
}

}  // namespace

AssemblyGenerator::AssemblyGenerator(const Machine& m,
                                     const sim::SignatureTable& sigs)
    : m_(&m),
      words_((m.wordWidth + 63) / 64),
      eligible_(m.fields.size()),
      masks_(m.fields.size()) {
  for (std::size_t f = 0; f < m.fields.size(); ++f) {
    const Field& field = m.fields[f];
    masks_[f].resize(field.operations.size() * words_);
    for (std::size_t o = 0; o < field.operations.size(); ++o) {
      const BitVector& mask =
          sigs.operation(unsigned(f), unsigned(o)).ownedMask();
      for (unsigned w = 0; w < words_; ++w)
        masks_[f][o * words_ + w] = mask.word(w);
      // Eligible: non-control, single-word, non-halt.
      const Operation& op = field.operations[o];
      if (!isHaltOperation(m, f, o) && !operationTouchesPc(m, op) &&
          op.costs.size == 1)
        eligible_[f].push_back(unsigned(o));
    }
  }
}

std::vector<std::string> AssemblyGenerator::generate(std::mt19937_64& rng,
                                                     unsigned length) const {
  const Machine& m = *m_;
  std::vector<std::string> lines;
  std::vector<int> choice(m.fields.size());
  std::vector<std::uint64_t> painted(words_);
  for (unsigned i = 0; i < length; ++i) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      // Pick a subset of fields (70% each); fields without a nop cannot be
      // omitted in assembly, so they are always included when possible.
      std::fill(choice.begin(), choice.end(), -1);
      unsigned included = 0;
      for (std::size_t f = 0; f < m.fields.size(); ++f) {
        if (eligible_[f].empty()) continue;
        bool mustInclude = m.fields[f].nopIndex < 0;
        if (!mustInclude && rng() % 10 >= 7) continue;
        choice[f] = int(eligible_[f][rng() % eligible_[f].size()]);
        ++included;
      }
      if (included == 0) continue;
      if (!m.satisfiesConstraints(choice)) continue;

      // Reject cross-field encoding conflicts (absent fields contribute
      // their nop's bits, exactly as the assembler will place them).
      std::fill(painted.begin(), painted.end(), 0);
      bool conflict = false;
      for (std::size_t f = 0; f < m.fields.size() && !conflict; ++f) {
        int o = choice[f] >= 0 ? choice[f] : m.fields[f].nopIndex;
        if (o < 0) continue;
        const std::uint64_t* mask = masks_[f].data() + std::size_t(o) * words_;
        for (unsigned w = 0; w < words_; ++w) {
          conflict = conflict || (mask[w] & painted[w]) != 0;
          painted[w] |= mask[w];
        }
      }
      if (conflict) continue;

      std::vector<std::string> slots;
      for (std::size_t f = 0; f < m.fields.size(); ++f)
        if (choice[f] >= 0)
          slots.push_back(renderOperation(
              m, unsigned(f), m.fields[f].operations[choice[f]], rng));
      lines.push_back(slots.size() == 1
                          ? slots[0]
                          : cat("{ ", join(slots, " | "), " }"));
      break;
    }
  }
  if (m.haltOp)
    lines.push_back(renderOperation(
        m, m.haltOp->fieldIndex,
        m.fields[m.haltOp->fieldIndex].operations[m.haltOp->opIndex], rng));
  return lines;
}

std::vector<std::string> randomAssemblyProgram(const Machine& m,
                                               const sim::SignatureTable& sigs,
                                               std::mt19937_64& rng,
                                               unsigned length) {
  return AssemblyGenerator(m, sigs).generate(rng, length);
}

}  // namespace isdl::testing
