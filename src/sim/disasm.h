// The generated disassembler (paper §3.3.2, Figure 4). Matches each field's
// operation signatures against the instruction word, recovers parameter
// values by reversing their bit encodings, and recurses into non-terminal
// return values. Used off-line at program-load time to build the decoded
// program cache, and by the assembler tests for round-tripping.

#ifndef ISDL_SIM_DISASM_H
#define ISDL_SIM_DISASM_H

#include <optional>
#include <string>

#include "sim/decoded.h"
#include "sim/signature.h"

namespace isdl::sim {

class Disassembler {
 public:
  explicit Disassembler(const SignatureTable& sigs);

  /// Decodes the instruction whose first word is memory[addr]. `memory` is
  /// the instruction-memory image. Returns std::nullopt and fills `error`
  /// if any field has no matching operation (an illegal instruction) or the
  /// instruction runs off the end of memory.
  std::optional<DecodedInstruction> decodeAt(
      const std::vector<BitVector>& memory, std::uint64_t addr,
      std::string* error = nullptr) const;

  /// Off-line disassembly of a whole program image (paper §3.1): attempts to
  /// decode at every word address in [0, programWords). Addresses that fail
  /// to decode get an empty slot; executing one is a runtime error. This is
  /// deliberately address-exhaustive so any control flow within the program
  /// region hits the cache.
  DecodedProgram decodeProgram(const std::vector<BitVector>& memory,
                               std::uint64_t programWords) const;

  /// Renders a decoded instruction back to assembly text,
  /// e.g. "{ add R1, R2, R3 | mnop }".
  std::string render(const DecodedInstruction& inst) const;

  /// Renders a single operation slot, e.g. "add R1, R2, R3".
  std::string renderOp(unsigned field, const DecodedOp& op) const;

 private:
  const SignatureTable* sigs_;
  const Machine* machine_;
  unsigned maxWords_;  ///< words of the longest instruction

  bool decodeParams(const Signature& sig, const std::vector<Param>& params,
                    const BitVector& word, std::vector<DecodedParam>& out,
                    std::string* error) const;
  bool decodeNtValue(unsigned ntIndex, const BitVector& value,
                     DecodedParam& out, std::string* error) const;

  std::string renderParam(const Param& p, const DecodedParam& dp) const;
  std::string renderSyntax(const std::vector<SyntaxItem>& syntax,
                           const std::vector<Param>& params,
                           const std::vector<DecodedParam>& dps) const;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_DISASM_H
