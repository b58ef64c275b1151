// Compiled-code simulator generation — the paper's §6.2 future-work item
// ("Additional speedups can be obtained by a move to compiled-code
// simulators"). Given a machine AND a concrete program, emits a standalone
// C++ translation: every instruction of the program becomes straight-line
// code with its decoded parameters folded in as constants, dispatched by a
// switch over the PC. Unlike the paper's XSIM executables (architecture-
// specific, program-agnostic), a compiled-code simulator is specific to one
// binary — that is where its speed comes from.
//
// Semantics: bit-true architectural execution with immediate write-back and
// static cycle accounting (like the hardware model); the identity
//     interpreted cycles == compiled cycles + interpreted stall cycles
// is validated by tests. Each instruction runs its uop::Binder record printed
// as C++ (Binder::printCpp), the specialisation XSIM's bound engine runs, so
// option resolution, evaluation order and range checks are XSIM's by
// construction, and every operator is a call into rtl/narrow_alu.h, whose
// text the generated source embeds. Storage elements wider than 64 bits
// (other than the instruction memory, which compiled execution never
// touches) and machines with a value wider than 64 bits (the widest value
// semantic analysis records, read by uop::Binder::narrow) are not supported
// and raise IsdlError.
//
// The emitted program runs the simulation and prints the final state as
// `<storage> <element> <hex>` lines plus `cycles N` / `instructions N`,
// which tests and the ablation bench parse back; a trap or an illegal PC
// prints `trap: <message>` and exits 2.

#ifndef ISDL_SIM_CODEGEN_H
#define ISDL_SIM_CODEGEN_H

#include <string>

#include "sim/assembler.h"
#include "sim/disasm.h"

namespace isdl::sim {

struct CodegenOptions {
  /// Cycle budget compiled into the generated main loop.
  std::uint64_t maxCycles = 1'000'000'000ull;
  /// Repeat the whole program run this many times (for benchmarking the
  /// generated simulator itself; state resets between repeats).
  std::uint64_t repeats = 1;
};

/// Generates the compiled-code simulator source for `prog` on `machine`.
/// Throws IsdlError on unsupported machines (storage or values wider than
/// 64 bits) or undecodable programs.
std::string generateCompiledSim(const Machine& machine,
                                const SignatureTable& sigs,
                                const AssembledProgram& prog,
                                const CodegenOptions& options = {});

}  // namespace isdl::sim

#endif  // ISDL_SIM_CODEGEN_H
