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
#include <string_view>
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
/// constructor lexes every literal of the machine's operand syntax into flat
/// pattern tables and indexes the operations by mnemonic and the enum
/// tokens by spelling, so matching a line compares tokens it already has.
class Assembler {
 public:
  explicit Assembler(const SignatureTable& sigs);

  /// Assembles `source`; returns std::nullopt with diagnostics on error.
  std::optional<AssembledProgram> assemble(std::string_view source,
                                           DiagnosticEngine& diags) const;

 private:
  class Impl;

  /// A range [first, last) of one of the tables below.
  struct Range {
    std::uint32_t first = 0, last = 0;
  };
  /// One item of a syntax pattern: parameter `param`, or a literal whose
  /// asm tokens are lexemes_[lexemes.first, lexemes.last).
  struct Item {
    bool isParam = false;
    unsigned param = 0;
    Range lexemes;
  };

  /// The items of operation `op` of field `field`'s syntax.
  Range opPattern(unsigned field, unsigned op) const {
    return opPatterns_[opBase_[field] + op];
  }
  /// The items of option `option` of non-terminal `nt`'s syntax.
  Range ntPattern(unsigned nt, unsigned option) const {
    return ntPatterns_[ntBase_[nt] + option];
  }
  /// One spelling of the index below: a mnemonic (scope 0, `value` packs
  /// a Range of candidates_) or a member of enum token `scope - 1` (`value`
  /// is its value), viewing the machine's text. A slot with an empty key is
  /// free.
  struct Spelling {
    std::string_view key;
    std::uint32_t scope = 0;
    std::uint64_t value = 0;
  };

  /// The (field, operation) pairs a mnemonic names, in field order and
  /// operation order within a field; empty for an unknown mnemonic.
  Range candidates(std::string_view mnemonic) const {
    const Spelling* s = find(0, mnemonic);
    return s ? Range{std::uint32_t(s->value), std::uint32_t(s->value >> 32)}
             : Range{};
  }
  /// The value of enum token `token`'s member spelled `syntax`.
  std::optional<std::uint64_t> memberValue(unsigned token,
                                           std::string_view syntax) const {
    const Spelling* s = find(token + 1, syntax);
    if (!s) return std::nullopt;
    return s->value;
  }
  Range addPattern(const std::vector<SyntaxItem>& syntax);
  void addSpelling(std::uint32_t scope, std::string_view key,
                   std::uint64_t value);
  /// The slot where (scope, key) is or would go.
  std::size_t probe(std::uint32_t scope, std::string_view key) const;
  const Spelling* find(std::uint32_t scope, std::string_view key) const {
    const Spelling& s = spellings_[probe(scope, key)];
    return s.key.empty() ? nullptr : &s;
  }

  const SignatureTable* sigs_;
  const Machine* machine_;
  std::vector<std::string> lexemes_;
  std::vector<Item> items_;
  std::vector<Range> opPatterns_;  ///< opBase_[field] + op
  std::vector<std::uint32_t> opBase_;
  std::vector<Range> ntPatterns_;  ///< ntBase_[nt] + option
  std::vector<std::uint32_t> ntBase_;
  std::vector<OpRef> candidates_;  ///< grouped by mnemonic
  /// Open addressing with linear probing over a power-of-two table at most
  /// half full: every mnemonic, and every enum member (the first declared
  /// of two spelled alike).
  std::vector<Spelling> spellings_;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_ASSEMBLER_H
