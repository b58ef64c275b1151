// Random program generation for conformance fuzzing (ISDL-FUZZ part 2).
//
// Two generators, exercising two different layers of the toolchain:
//
//   * randomEncodedProgram assembles instruction words directly through the
//     signature tables (sim/signature.h). It can reach operand patterns the
//     assembler's syntax never produces, so it is the widest net for the
//     execution engines. (Moved here from tests/fuzz_diff_test.cpp so gtest
//     and the isdl-fuzz driver share one generator.)
//
//   * randomAssemblyProgram renders assembly-source text from the machine's
//     own syntax tables — field-qualified mnemonics, enum spellings, decimal
//     immediates, non-terminal option syntax — so the assembler's lexing and
//     longest-match paths are fuzzed alongside the engines. The result is
//     retargeted per machine automatically: whatever the generated (or
//     hand-written) description declares is what gets rendered.
//
// Both generators exclude control-flow operations (anything assigning the
// PC), respect `never` constraints, and reject cross-field encoding
// conflicts, so every emitted program is assembleable and runs straight
// through to the terminating halt instruction.

#ifndef ISDL_TESTING_PROGRAMGEN_H
#define ISDL_TESTING_PROGRAMGEN_H

#include <random>
#include <string>
#include <vector>

#include "isdl/model.h"
#include "sim/xsim.h"

namespace isdl::testing {

/// True if the operation's action or side effects assign the program counter
/// (such operations are excluded from random straight-line programs).
bool operationTouchesPc(const Machine& m, const Operation& op);

/// Builds a random straight-line program: `length` instructions made of
/// randomly chosen non-control operations with random operands, then halt.
/// Instructions are assembled per-field via signatures, so every operand
/// pattern (not just assembler-reachable ones) is exercised.
sim::AssembledProgram randomEncodedProgram(const Machine& m,
                                           const sim::SignatureTable& sigs,
                                           std::mt19937& rng, unsigned length);

/// Random assembly programs for one machine. The eligible operations of
/// each field and every operation's owned encoding bits (as words, for the
/// clash test) are derived once, at construction, so each program costs
/// only its random choices and its rendering.
class AssemblyGenerator {
 public:
  AssemblyGenerator(const Machine& m, const sim::SignatureTable& sigs);

  /// Builds a random program as assembly-source lines; the last line is the
  /// halt instruction (omitted if the machine declares none). Bundles with
  /// more than one field render as `{ F0.op ... | F1.op ... }`; mnemonics
  /// are always field-qualified. Fields may be omitted only when they have a
  /// nop.
  std::vector<std::string> generate(std::mt19937_64& rng,
                                    unsigned length) const;

 private:
  const Machine* m_;
  unsigned words_;  ///< 64-bit words per instruction word
  /// Non-control, single-word, non-halt operations per field.
  std::vector<std::vector<unsigned>> eligible_;
  /// masks_[f][o * words_ + w]: word w of operation o's owned bits.
  std::vector<std::vector<std::uint64_t>> masks_;
};

/// One program of AssemblyGenerator(m, sigs); build the generator once when
/// generating several programs for one machine.
std::vector<std::string> randomAssemblyProgram(const Machine& m,
                                               const sim::SignatureTable& sigs,
                                               std::mt19937_64& rng,
                                               unsigned length);

}  // namespace isdl::testing

#endif  // ISDL_TESTING_PROGRAMGEN_H
