// Decoded instruction representation. The paper's XSIM simulators
// disassemble the program off-line at load time (§3.1); the result is an
// array of DecodedInstructions, with no per-cycle decoding work. The
// interpreter walks their parameter trees on every issue; the bound engine
// walks each one once, when the instruction first issues, into a flat record
// (sim/uop.h) and then runs that record.

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
  /// Parameters of the selected option (non-terminal parameters only).
  std::vector<DecodedParam> sub;
};

/// One operation slot of a decoded instruction.
struct DecodedOp {
  unsigned opIndex = 0;
  std::vector<DecodedParam> params;

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
  unsigned sizeWords = 1;     ///< words occupied (max over field operations)
  std::vector<DecodedOp> ops; ///< indexed by field

  /// Aggregate cycle cost: max over fields of the operation's cycle cost
  /// plus its chosen options' extras. Filled by the disassembler.
  unsigned cycles = 1;
  /// The largest effective Usage over fields, and the first field with it:
  /// the functional unit the instruction keeps busy longest.
  unsigned usage = 1;
  unsigned usageField = 0;
};

/// A fully decoded program: the off-line disassembly cache.
struct DecodedProgram {
  /// Indexed by instruction-memory word address; entries not at an
  /// instruction start are empty (sizeWords == 0).
  std::vector<DecodedInstruction> byAddress;

  bool hasInstructionAt(std::uint64_t addr) const {
    return addr < byAddress.size() && byAddress[addr].sizeWords != 0;
  }
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_DECODED_H
