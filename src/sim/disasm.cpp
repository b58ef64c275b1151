#include "sim/disasm.h"

#include "support/strings.h"

namespace isdl::sim {

Disassembler::Disassembler(const SignatureTable& sigs)
    : sigs_(&sigs),
      machine_(&sigs.machine()),
      maxWords_(sigs.machine().maxSizeWords()) {}

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

bool Disassembler::decodeNtValue(unsigned ntIndex, const BitVector& value,
                                 DecodedParam& out,
                                 std::string* error) const {
  const NonTerminal& nt = machine_->nonTerminals[ntIndex];
  for (std::size_t o = 0; o < nt.options.size(); ++o) {
    const Signature& sig = sigs_->ntOption(ntIndex, o);
    if (!sig.matches(value)) continue;
    out.ntOption = static_cast<int>(o);
    const NtOption& opt = nt.options[o];
    out.sub.clear();
    out.sub.reserve(opt.params.size());
    for (std::size_t p = 0; p < opt.params.size(); ++p) {
      DecodedParam dp;
      dp.encoded = sig.extractParam(static_cast<unsigned>(p), value);
      if (opt.params[p].kind == ParamKind::NonTerminal) {
        if (!decodeNtValue(opt.params[p].index, dp.encoded, dp, error))
          return false;
      }
      out.sub.push_back(std::move(dp));
    }
    return true;
  }
  if (error)
    *error = cat("no option of non-terminal '", nt.name,
                 "' matches return value ", value.toHexString());
  return false;
}

bool Disassembler::decodeParams(const Signature& sig,
                                const std::vector<Param>& params,
                                const BitVector& word,
                                std::vector<DecodedParam>& out,
                                std::string* error) const {
  out.clear();
  out.reserve(params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    DecodedParam dp;
    dp.encoded = sig.extractParam(static_cast<unsigned>(p), word);
    if (params[p].kind == ParamKind::NonTerminal) {
      if (!decodeNtValue(params[p].index, dp.encoded, dp, error))
        return false;
    } else if (machine_->tokens[params[p].index].kind == TokenKind::Enum) {
      // Enum values must name a member; a hole in the value space makes the
      // instruction illegal.
      const TokenDef& tok = machine_->tokens[params[p].index];
      if (!tok.memberSyntax(dp.encoded.toUint64())) {
        if (error)
          *error = cat("value ", dp.encoded.toUint64(),
                       " is not a member of token '", tok.name, "'");
        return false;
      }
    }
    out.push_back(std::move(dp));
  }
  return true;
}

std::optional<DecodedInstruction> Disassembler::decodeAt(
    const std::vector<BitVector>& memory, std::uint64_t addr,
    std::string* error) const {
  if (addr >= memory.size()) {
    if (error) *error = cat("address ", addr, " outside instruction memory");
    return std::nullopt;
  }
  const unsigned wordWidth = machine_->wordWidth;

  // Assemble the widest possible instruction image; words past the end of
  // memory read as zero (their bits are only consulted by multi-word
  // operations, which then simply fail to match).
  BitVector image(maxWords_ * wordWidth);
  for (unsigned w = 0; w < maxWords_; ++w) {
    if (addr + w < memory.size())
      image.insertSlice((w + 1) * wordWidth - 1, w * wordWidth,
                        memory[addr + w]);
  }

  DecodedInstruction inst;
  inst.address = addr;
  inst.ops.resize(machine_->fields.size());
  unsigned maxCycles = 1;
  unsigned maxSize = 1;

  for (std::size_t f = 0; f < machine_->fields.size(); ++f) {
    const Field& field = machine_->fields[f];
    bool matched = false;
    for (std::size_t o = 0; o < field.operations.size(); ++o) {
      const Signature& sig = sigs_->operation(static_cast<unsigned>(f),
                                              static_cast<unsigned>(o));
      if (!sig.matches(image)) continue;
      const Operation& op = field.operations[o];
      DecodedOp dop;
      dop.opIndex = static_cast<unsigned>(o);
      std::string perr;
      if (!decodeParams(sig, op.params, image, dop.params, &perr)) {
        if (error)
          *error = cat("field '", field.name, "', operation '", op.name,
                       "': ", perr);
        return std::nullopt;
      }
      dop.effCycle = op.costs.cycle;
      dop.effStall = op.costs.stall;
      dop.effSize = op.costs.size;
      dop.effLatency = op.timing.latency;
      dop.effUsage = op.timing.usage;
      for (std::size_t p = 0; p < op.params.size(); ++p) {
        if (op.params[p].kind == ParamKind::NonTerminal &&
            dop.params[p].ntOption >= 0) {
          addOptionExtras(machine_->nonTerminals[op.params[p].index]
                              .options[dop.params[p].ntOption],
                          dop);
        }
      }
      maxCycles = std::max(maxCycles, dop.effCycle);
      maxSize = std::max(maxSize, dop.effSize);
      if (f == 0 || dop.effUsage > inst.usage) {
        inst.usage = dop.effUsage;
        inst.usageField = static_cast<unsigned>(f);
      }
      inst.ops[f] = std::move(dop);
      matched = true;
      break;  // the match is unique for a decodeable assembly function
    }
    if (!matched) {
      if (error)
        *error = cat("illegal instruction at ", addr, ": no operation of "
                     "field '", field.name, "' matches ",
                     image.toHexString());
      return std::nullopt;
    }
  }

  if (addr + maxSize > memory.size()) {
    if (error)
      *error = cat("instruction at ", addr, " (", maxSize,
                   " words) runs past the end of instruction memory");
    return std::nullopt;
  }
  inst.sizeWords = maxSize;
  inst.cycles = maxCycles;
  return inst;
}

DecodedProgram Disassembler::decodeProgram(const std::vector<BitVector>& memory,
                                           std::uint64_t programWords) const {
  DecodedProgram prog;
  std::uint64_t n = std::min<std::uint64_t>(programWords, memory.size());
  prog.byAddress.resize(n);
  for (std::uint64_t addr = 0; addr < n; ++addr) {
    if (auto inst = decodeAt(memory, addr)) {
      prog.byAddress[addr] = std::move(*inst);
    } else {
      prog.byAddress[addr].sizeWords = 0;  // undecodable slot
    }
  }
  return prog;
}

// --- rendering -----------------------------------------------------------------

std::string Disassembler::renderParam(const Param& p,
                                      const DecodedParam& dp) const {
  if (p.kind == ParamKind::NonTerminal) {
    const NonTerminal& nt = machine_->nonTerminals[p.index];
    const NtOption& opt = nt.options[dp.ntOption];
    return renderSyntax(opt.syntax, opt.params, dp.sub);
  }
  const TokenDef& tok = machine_->tokens[p.index];
  if (tok.kind == TokenKind::Enum) {
    if (auto syntax = tok.memberSyntax(dp.encoded.toUint64())) return *syntax;
    return cat("<bad:", dp.encoded.toUint64(), ">");
  }
  if (tok.isSigned) return std::to_string(dp.encoded.toInt64());
  return dp.encoded.toUnsignedDecimalString();
}

std::string Disassembler::renderSyntax(
    const std::vector<SyntaxItem>& syntax, const std::vector<Param>& params,
    const std::vector<DecodedParam>& dps) const {
  // Pieces are joined with single spaces, except that commas attach to the
  // preceding piece ("add R1, R2" rather than "add R1 , R2").
  std::string out;
  for (const auto& item : syntax) {
    std::string piece = item.isLiteral
                            ? item.literal
                            : renderParam(params[item.paramIndex],
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

std::string Disassembler::renderOp(unsigned field, const DecodedOp& op) const {
  const Operation& o = machine_->fields[field].operations[op.opIndex];
  std::string operands = renderSyntax(o.syntax, o.params, op.params);
  return operands.empty() ? o.name : cat(o.name, " ", operands);
}

std::string Disassembler::render(const DecodedInstruction& inst) const {
  std::vector<std::string> parts;
  for (std::size_t f = 0; f < inst.ops.size(); ++f)
    parts.push_back(renderOp(static_cast<unsigned>(f), inst.ops[f]));
  if (parts.size() == 1) return parts[0];
  return "{ " + join(parts, " | ") + " }";
}

}  // namespace isdl::sim
