// Semantic analysis for a parsed Machine: RTL width checking/inference,
// encoding validation (coverage, overlap, Axiom-1 discipline), non-terminal
// value/lvalue width resolution, and structural checks (unique PC and
// instruction memory, field nop detection, the halt operation, sane
// costs/timing).
//
// checkMachine() must run before any tool generation; it also fills in the
// derived fields of Machine (pcIndex, imemIndex, haltOp, widestValue,
// Field::nopIndex, Operation::writesPc, NonTerminal::valueWidth/lvalueWidth)
// and the `width` of every RTL node, so no back end walks the RTL trees to
// find them again.

#ifndef ISDL_ISDL_SEMA_H
#define ISDL_ISDL_SEMA_H

#include "isdl/model.h"
#include "support/diag.h"

namespace isdl {

/// Runs all semantic checks; returns true iff no errors were added.
bool checkMachine(Machine& machine, DiagnosticEngine& diags);

/// Number of bits needed to address `depth` locations (>= 1).
unsigned addressBits(std::uint64_t depth);

/// Width of parameter `p` when read as an rvalue in RTL (token width, or the
/// non-terminal's resolved valueWidth; 0 if the non-terminal has no value).
unsigned paramValueWidth(const Machine& m, const Param& p);

}  // namespace isdl

#endif  // ISDL_ISDL_SEMA_H
