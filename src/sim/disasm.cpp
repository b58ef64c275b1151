#include "sim/disasm.h"

#include <algorithm>

#include "support/strings.h"

namespace isdl::sim {

Disassembler::Disassembler(const SignatureTable& sigs)
    : sigs_(&sigs),
      machine_(&sigs.machine()),
      maxWords_(sigs.machine().maxSizeWords()) {
  std::size_t numOps = 0;
  for (const Field& field : machine_->fields) numOps += field.operations.size();
  firstWords_.reserve(numOps);
  firstWordBase_.reserve(machine_->fields.size());
  for (unsigned f = 0; f < machine_->fields.size(); ++f) {
    firstWordBase_.push_back(std::uint32_t(firstWords_.size()));
    for (unsigned o = 0; o < machine_->fields[f].operations.size(); ++o) {
      const Signature& sig = sigs.operation(f, o);
      firstWords_.push_back({.care = sig.careMask().word(0),
                             .bits = sig.constBits().word(0),
                             .wide = sig.careMask().numWords() > 1});
    }
  }
  memberBase_.reserve(machine_->tokens.size() + 1);
  for (const TokenDef& tok : machine_->tokens) {
    memberBase_.push_back(std::uint32_t(memberValues_.size()));
    for (const TokenMember& m : tok.members) memberValues_.push_back(m.value);
  }
  memberBase_.push_back(std::uint32_t(memberValues_.size()));
}

namespace {

/// Accumulates option extras into an operation's effective costs/timing.
void addOptionExtras(const NtOption& opt, DecodedOp& op) {
  op.effCycle += opt.extraCosts.cycle;
  op.effStall += opt.extraCosts.stall;
  op.effSize += opt.extraCosts.size;
  op.effLatency += opt.extraTiming.latency;
  op.effUsage += opt.extraTiming.usage;
}

}  // namespace

bool Disassembler::decodeNtValue(unsigned ntIndex, std::uint32_t slot,
                                 DecodedProgram& into,
                                 std::string* error) const {
  const NonTerminal& nt = machine_->nonTerminals[ntIndex];
  // A copy: decoding the option's parameters grows the arena.
  const BitVector value = into.params[slot].encoded;
  for (std::size_t o = 0; o < nt.options.size(); ++o) {
    const Signature& sig = sigs_->ntOption(ntIndex, unsigned(o));
    if (!sig.matches(value)) continue;
    into.params[slot].ntOption = static_cast<int>(o);
    into.params[slot].firstSub = std::uint32_t(into.params.size());
    return decodeParams(sig, nt.options[o].params, value, false, into, error);
  }
  if (error)
    *error = cat("no option of non-terminal '", nt.name,
                 "' matches return value ", value.toHexString());
  return false;
}

bool Disassembler::decodeParams(const Signature& sig,
                                const std::vector<Param>& params,
                                const BitVector& word, bool checkEnums,
                                DecodedProgram& into,
                                std::string* error) const {
  // The parameters' block first, then the blocks of the options they
  // select after it.
  const std::uint32_t first = std::uint32_t(into.params.size());
  for (std::size_t p = 0; p < params.size(); ++p)
    into.params.push_back({.encoded = sig.extractParam(unsigned(p), word)});
  for (std::size_t p = 0; p < params.size(); ++p) {
    const std::uint32_t slot = first + std::uint32_t(p);
    if (params[p].kind == ParamKind::NonTerminal) {
      if (!decodeNtValue(params[p].index, slot, into, error)) return false;
    } else if (checkEnums &&
               machine_->tokens[params[p].index].kind == TokenKind::Enum) {
      // Enum values must name a member; a hole in the value space makes the
      // instruction illegal.
      const unsigned t = params[p].index;
      const std::uint64_t v = into.params[slot].encoded.toUint64();
      // A scan without early exit: it has no branch to mispredict.
      bool member = false;
      for (std::uint32_t k = memberBase_[t]; k < memberBase_[t + 1]; ++k)
        member |= memberValues_[k] == v;
      if (!member) {
        if (error)
          *error = cat("value ", v, " is not a member of token '",
                       machine_->tokens[t].name, "'");
        return false;
      }
    }
  }
  return true;
}

void Disassembler::loadImage(const std::vector<BitVector>& memory,
                             std::uint64_t addr, BitVector& image) const {
  const unsigned wordWidth = machine_->wordWidth;
  if (addr + maxWords_ > memory.size())
    for (unsigned i = 0; i < image.numWords(); ++i) image.setWord(i, 0);
  for (unsigned w = 0; w < maxWords_ && addr + w < memory.size(); ++w)
    image.insertSlice((w + 1) * wordWidth - 1, w * wordWidth,
                      memory[addr + w]);
}

bool Disassembler::decodeAt(const std::vector<BitVector>& memory,
                            std::uint64_t addr, DecodedProgram& into,
                            std::string* error) const {
  if (addr >= memory.size()) {
    if (error) *error = cat("address ", addr, " outside instruction memory");
    return false;
  }
  // The widest possible instruction image; words past the end of memory
  // read as zero (their bits are only consulted by multi-word operations,
  // which then simply fail to match).
  BitVector image(maxWords_ * machine_->wordWidth);
  loadImage(memory, addr, image);
  return decodeImage(image, addr, memory.size(), into, error);
}

bool Disassembler::decodeImage(const BitVector& image, std::uint64_t addr,
                               std::uint64_t memoryWords,
                               DecodedProgram& into,
                               std::string* error) const {
  const std::size_t numFields = machine_->fields.size();
  const std::size_t opsMark = into.ops.size();
  const std::size_t paramsMark = into.params.size();
  auto fail = [&] {
    into.ops.resize(opsMark);
    into.params.resize(paramsMark);
    return false;
  };

  DecodedInstruction inst;
  inst.address = addr;
  inst.firstOp = std::uint32_t(opsMark);
  into.ops.resize(opsMark + numFields);
  unsigned maxCycles = 1;
  unsigned maxSize = 1;

  for (std::size_t f = 0; f < numFields; ++f) {
    const Field& field = machine_->fields[f];
    // The match is unique for a decodeable assembly function.
    const FirstWord* first = firstWords_.data() + firstWordBase_[f];
    const std::uint64_t low = image.word(0);
    unsigned o = 0;
    const unsigned numOps = unsigned(field.operations.size());
    while (o < numOps &&
           (((low ^ first[o].bits) & first[o].care) != 0 ||
            (first[o].wide &&
             !sigs_->operation(unsigned(f), o).matches(image))))
      ++o;
    if (o == numOps) {
      if (error)
        *error = cat("illegal instruction at ", addr, ": no operation of "
                     "field '", field.name, "' matches ",
                     image.toHexString());
      return fail();
    }
    const Operation& op = field.operations[o];
    // Decoding parameters grows only the parameter arena.
    DecodedOp& dop = into.ops[opsMark + f];
    dop.opIndex = o;
    dop.firstParam = std::uint32_t(into.params.size());
    if (!decodeParams(sigs_->operation(unsigned(f), o), op.params, image,
                      true, into, error)) {
      if (error)
        *error = cat("field '", field.name, "', operation '", op.name,
                     "': ", *error);
      return fail();
    }
    dop.effCycle = op.costs.cycle;
    dop.effStall = op.costs.stall;
    dop.effSize = op.costs.size;
    dop.effLatency = op.timing.latency;
    dop.effUsage = op.timing.usage;
    for (std::size_t p = 0; p < op.params.size(); ++p) {
      const DecodedParam& dp = into.params[dop.firstParam + p];
      if (op.params[p].kind == ParamKind::NonTerminal && dp.ntOption >= 0)
        addOptionExtras(
            machine_->nonTerminals[op.params[p].index].options[dp.ntOption],
            dop);
    }
    const std::optional<OpRef>& halt = machine_->haltOp;
    if (halt && halt->fieldIndex == f && halt->opIndex == o) inst.halts = true;
    maxCycles = std::max(maxCycles, dop.effCycle);
    maxSize = std::max(maxSize, dop.effSize);
    if (f == 0 || dop.effUsage > inst.usage) {
      inst.usage = dop.effUsage;
      inst.usageField = static_cast<unsigned>(f);
    }
  }

  if (addr + maxSize > memoryWords) {
    if (error)
      *error = cat("instruction at ", addr, " (", maxSize,
                   " words) runs past the end of instruction memory");
    return fail();
  }
  inst.sizeWords = maxSize;
  inst.cycles = maxCycles;
  if (into.byAddress.size() <= addr) into.byAddress.resize(addr + 1);
  into.byAddress[addr] = inst;
  return true;
}

void Disassembler::decodeProgram(const std::vector<BitVector>& memory,
                                 std::uint64_t programWords,
                                 DecodedProgram& into) const {
  const std::uint64_t n = std::min<std::uint64_t>(programWords, memory.size());
  into.byAddress.assign(n, {});  // undecodable slots stay empty
  into.ops.clear();
  into.params.clear();
  // A slot per field per address, and about a parameter per slot.
  into.ops.reserve(n * machine_->fields.size());
  into.params.reserve(n * machine_->fields.size());
  BitVector image(maxWords_ * machine_->wordWidth);
  for (std::uint64_t addr = 0; addr < n; ++addr) {
    loadImage(memory, addr, image);
    decodeImage(image, addr, memory.size(), into, nullptr);
  }
}

// --- rendering -----------------------------------------------------------------

std::string Disassembler::renderParam(const DecodedProgram& prog,
                                      const Param& p,
                                      const DecodedParam& dp) const {
  if (p.kind == ParamKind::NonTerminal) {
    const NonTerminal& nt = machine_->nonTerminals[p.index];
    const NtOption& opt = nt.options[dp.ntOption];
    return renderSyntax(prog, opt.syntax, opt.params, prog.subOf(dp));
  }
  const TokenDef& tok = machine_->tokens[p.index];
  if (tok.kind == TokenKind::Enum) {
    if (auto syntax = tok.memberSyntax(dp.encoded.toUint64())) return *syntax;
    return cat("<bad:", dp.encoded.toUint64(), ">");
  }
  if (tok.isSigned) return std::to_string(dp.encoded.toInt64());
  return dp.encoded.toUnsignedDecimalString();
}

std::string Disassembler::renderSyntax(const DecodedProgram& prog,
                                       const std::vector<SyntaxItem>& syntax,
                                       const std::vector<Param>& params,
                                       const DecodedParam* dps) const {
  // Pieces are joined with single spaces, except that commas attach to the
  // preceding piece ("add R1, R2" rather than "add R1 , R2").
  std::string out;
  for (const auto& item : syntax) {
    std::string piece = item.isLiteral
                            ? item.literal
                            : renderParam(prog, params[item.paramIndex],
                                          dps[item.paramIndex]);
    if (piece.empty()) continue;
    if (piece == ",") {
      out += ",";
    } else {
      if (!out.empty()) out += ' ';
      out += piece;
    }
  }
  return out;
}

std::string Disassembler::render(const DecodedProgram& prog,
                                 std::uint64_t address) const {
  const DecodedOp* ops = prog.opsOf(prog.byAddress[address]);
  const std::size_t numFields = machine_->fields.size();
  std::string out = numFields == 1 ? "" : "{ ";
  for (std::size_t f = 0; f < numFields; ++f) {
    const Operation& o = machine_->fields[f].operations[ops[f].opIndex];
    if (f > 0) out += " | ";
    out += o.name;
    std::string operands =
        renderSyntax(prog, o.syntax, o.params, prog.paramsOf(ops[f]));
    if (!operands.empty()) out += ' ' + operands;
  }
  if (numFields != 1) out += " }";
  return out;
}

}  // namespace isdl::sim
