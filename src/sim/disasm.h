// The generated disassembler (paper §3.3.2, Figure 4). Matches each field's
// operation signatures against the instruction word, recovers parameter
// values by reversing their bit encodings, and recurses into non-terminal
// return values. Used off-line at program-load time to build the decoded
// program cache, and by the assembler tests for round-tripping.

#ifndef ISDL_SIM_DISASM_H
#define ISDL_SIM_DISASM_H

#include <string>

#include "sim/decoded.h"
#include "sim/signature.h"

namespace isdl::sim {

class Disassembler {
 public:
  explicit Disassembler(const SignatureTable& sigs);

  /// Decodes the instruction whose first word is memory[addr] into `into`:
  /// appends its operation slots and parameters to the arenas and sets
  /// into.byAddress[addr], growing byAddress to cover `addr`. `memory` is
  /// the instruction-memory image. Returns false, fills `error` and leaves
  /// the arenas and the slot as they were if any field has no matching
  /// operation (an illegal instruction) or the instruction runs off the end
  /// of memory.
  bool decodeAt(const std::vector<BitVector>& memory, std::uint64_t addr,
                DecodedProgram& into, std::string* error = nullptr) const;

  /// Off-line disassembly of a whole program image (paper §3.1) into
  /// `into`, replacing what it held and reusing its storage: attempts to
  /// decode at every word address in [0, programWords). Addresses that fail
  /// to decode get an empty slot; executing one is a runtime error. This is
  /// deliberately address-exhaustive so any control flow within the program
  /// region hits the cache.
  void decodeProgram(const std::vector<BitVector>& memory,
                     std::uint64_t programWords, DecodedProgram& into) const;

  /// Renders the instruction `prog` decoded at `address` back to assembly
  /// text, e.g. "{ add R1, R2, R3 | mnop }".
  std::string render(const DecodedProgram& prog, std::uint64_t address) const;

 private:
  /// The low 64 bits of one operation signature's care mask and constant
  /// bits; `wide` when the care mask reaches past them.
  struct FirstWord {
    std::uint64_t care = 0, bits = 0;
    bool wide = false;
  };

  const SignatureTable* sigs_;
  const Machine* machine_;
  unsigned maxWords_;  ///< words of the longest instruction
  /// Every operation's FirstWord, field by field: firstWords_[firstWordBase_
  /// [field] + op]. Matching scans these and confirms a wide signature.
  std::vector<FirstWord> firstWords_;
  std::vector<std::uint32_t> firstWordBase_;
  /// Every token's member values: token t's are memberValues_
  /// [memberBase_[t], memberBase_[t + 1]) (none for an immediate).
  std::vector<std::uint64_t> memberValues_;
  std::vector<std::uint32_t> memberBase_;

  /// Fills `image` (maxWords_ words wide) with the words from memory[addr];
  /// words past the end of memory read as zero.
  void loadImage(const std::vector<BitVector>& memory, std::uint64_t addr,
                 BitVector& image) const;
  /// decodeAt on an image loadImage filled.
  bool decodeImage(const BitVector& image, std::uint64_t addr,
                   std::uint64_t memoryWords, DecodedProgram& into,
                   std::string* error) const;
  /// Appends one parameter per entry of `params`, extracted from `word`
  /// through `sig`, and decodes non-terminal values recursively. Enum tokens
  /// must name a member when `checkEnums` is set.
  bool decodeParams(const Signature& sig, const std::vector<Param>& params,
                    const BitVector& word, bool checkEnums,
                    DecodedProgram& into, std::string* error) const;
  /// Selects the option of non-terminal `ntIndex` that into.params[slot]'s
  /// value matches and decodes its parameters.
  bool decodeNtValue(unsigned ntIndex, std::uint32_t slot,
                     DecodedProgram& into, std::string* error) const;

  std::string renderParam(const DecodedProgram& prog, const Param& p,
                          const DecodedParam& dp) const;
  std::string renderSyntax(const DecodedProgram& prog,
                           const std::vector<SyntaxItem>& syntax,
                           const std::vector<Param>& params,
                           const DecodedParam* dps) const;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_DISASM_H
