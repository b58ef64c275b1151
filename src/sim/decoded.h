// Decoded instruction representation. The paper's XSIM simulators
// disassemble the program off-line at load time (§3.1); the result is a
// DecodedProgram, with no per-cycle decoding work. Its layout is flat: one
// record per instruction-memory address, and two arenas per program, one of
// operation slots and one of parameters, which the records and slots index.
// Decoding an instruction therefore appends to the arenas instead of
// allocating a tree. The interpreter walks an instruction's parameters
// through the arenas on every issue; the bound engine walks them once, when
// the program loads, into flat records (sim/uop.h) and then runs those.

#ifndef ISDL_SIM_DECODED_H
#define ISDL_SIM_DECODED_H

#include <cstdint>
#include <vector>

#include "isdl/model.h"
#include "support/bitvector.h"

namespace isdl::sim {

/// Runtime binding of one parameter of an operation or non-terminal option.
struct DecodedParam {
  /// The encoded value recovered from the instruction word: token value,
  /// immediate bits, or non-terminal return value.
  BitVector encoded;
  /// For non-terminal parameters: the option selected by the return value's
  /// constant bits; -1 for token parameters.
  int ntOption = -1;
  /// For non-terminal parameters: the first of the selected option's
  /// parameters in DecodedProgram::params (the option declares how many).
  std::uint32_t firstSub = 0;
};

/// One operation slot of a decoded instruction.
struct DecodedOp {
  unsigned opIndex = 0;
  /// The first of the operation's parameters in DecodedProgram::params.
  std::uint32_t firstParam = 0;

  /// Effective costs/timing: the operation's own numbers plus the extras of
  /// every chosen non-terminal option (an addressing mode can add cycles or
  /// latency). Precomputed by the disassembler so the core never walks the
  /// model during execution.
  unsigned effCycle = 1;
  unsigned effStall = 0;
  unsigned effSize = 1;
  unsigned effLatency = 1;
  unsigned effUsage = 1;
};

/// One full (VLIW) instruction: exactly one operation per field.
struct DecodedInstruction {
  std::uint64_t address = 0;  ///< word address in instruction memory
  /// Words occupied (max over field operations); 0 where no instruction
  /// starts.
  unsigned sizeWords = 0;
  /// The first of the instruction's operation slots in DecodedProgram::ops,
  /// one per field in field order.
  std::uint32_t firstOp = 0;

  /// Aggregate cycle cost: max over fields of the operation's cycle cost
  /// plus its chosen options' extras. Filled by the disassembler.
  unsigned cycles = 1;
  /// The largest effective Usage over fields, and the first field with it:
  /// the functional unit the instruction keeps busy longest.
  unsigned usage = 1;
  unsigned usageField = 0;
  /// True when the instruction holds the machine's halt operation
  /// (Machine::haltOp): the simulator stops after issuing it.
  bool halts = false;
};

/// A fully decoded program: the off-line disassembly cache.
struct DecodedProgram {
  /// Indexed by instruction-memory word address; entries not at an
  /// instruction start are empty (sizeWords == 0).
  std::vector<DecodedInstruction> byAddress;
  /// The operation slots of every decoded instruction.
  std::vector<DecodedOp> ops;
  /// The parameters of every slot and of every selected option.
  std::vector<DecodedParam> params;

  bool hasInstructionAt(std::uint64_t addr) const {
    return addr < byAddress.size() && byAddress[addr].sizeWords != 0;
  }
  /// The slots of `inst`, indexed by field.
  const DecodedOp* opsOf(const DecodedInstruction& inst) const {
    return ops.data() + inst.firstOp;
  }
  /// The parameters of `op`, in declaration order.
  const DecodedParam* paramsOf(const DecodedOp& op) const {
    return params.data() + op.firstParam;
  }
  /// The parameters of the option non-terminal parameter `p` selected.
  const DecodedParam* subOf(const DecodedParam& p) const {
    return params.data() + p.firstSub;
  }
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_DECODED_H
