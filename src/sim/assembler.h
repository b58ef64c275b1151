// The retargetable assembler (the "ASM -> BIN" box of the paper's Figure 1).
// Parses VLIW assembly text against the Machine's operation/option syntax,
// applies the ISDL assembly function (bitfield assignments via signatures),
// enforces the constraints section, and emits an instruction-memory image.
//
// Source format (one instruction per line):
//
//   ; or // comment  ('#' is reserved for immediate-prefix syntax)
//   label:
//   { add R1, R2, R3 | mv R4, R5 }    ; one operation per field, '|' separated
//   addi R1, #7                        ; single op; other fields take their nop
//   EX.add R1, R2, R3                  ; field-qualified mnemonic
//   jmp loop                           ; labels usable as immediates
//   .org 16                            ; move the location counter
//   .word 0xDEADBEEF                   ; raw instruction word
//   .dm 5 1234                         ; data-memory initialisation record
//
// Assembly is two-pass: pass 1 chooses operations/options and computes
// instruction sizes (labels get word addresses), pass 2 resolves label
// references and paints bits.

#ifndef ISDL_SIM_ASSEMBLER_H
#define ISDL_SIM_ASSEMBLER_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/signature.h"
#include "support/diag.h"

namespace isdl::sim {

struct AssembledProgram {
  /// Instruction-memory image starting at word address 0.
  std::vector<BitVector> words;
  /// Label -> word address.
  std::map<std::string, std::uint64_t> symbols;
  /// Data-memory initialisation records from .dm directives.
  std::vector<std::pair<std::uint64_t, BitVector>> dataInit;
};

/// Built once per machine, then assembles any number of programs. The
/// constructor lexes every literal of the machine's operand syntax, so
/// matching a line compares tokens it already has.
class Assembler {
 public:
  explicit Assembler(const SignatureTable& sigs);

  /// Assembles `source`; returns std::nullopt with diagnostics on error.
  std::optional<AssembledProgram> assemble(std::string_view source,
                                           DiagnosticEngine& diags) const;

  /// The asm tokens of each item of one syntax pattern: empty for a
  /// parameter item, the lexemes of the literal for a literal item.
  using SyntaxLexemes = std::vector<std::vector<std::string>>;

 private:
  const SignatureTable* sigs_;
  const Machine* machine_;
  std::vector<std::vector<SyntaxLexemes>> opLexemes_;  // [field][op][item]
  std::vector<std::vector<SyntaxLexemes>> ntLexemes_;  // [nt][option][item]
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_ASSEMBLER_H
