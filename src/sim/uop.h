// Micro-op compiled execution engine (the XSIM fast path).
//
// The interpreter in sim/core.cpp re-walks the rtl::Expr AST of every
// operation action for every issued instruction, re-resolving non-terminal
// option values recursively through virtual EvalContext calls each time. The
// generated-simulator literature (Reshadi & Dutt; Blanqui et al., see
// PAPERS.md) shows that pre-compiling the semantic functions into flat,
// dispatchable code is what moves ADL-generated simulators from "correct" to
// "fast". This header is that compilation layer:
//
//   * At Xsim construction, every (field, operation) action and side-effect
//     tree — including the transitive non-terminal option value / lvalue /
//     side-effect trees — is lowered once into a flat register-based
//     micro-op Program.
//   * The processing core executes a Program with a tight switch-dispatch
//     loop over a reusable register file of (uint64_t, width) values
//     (ExecEngine::execProgram, defined in uop.cpp), with no recursion, no
//     virtual calls, and no per-issue context allocation. Every operator is
//     the shared ≤64-bit ALU of rtl/narrow_alu.h.
//
// Decode-time choices (which non-terminal option an operand selected) are
// the only dynamic inputs besides state: they are handled by BrOption jump
// tables plus a tiny frame stack mirroring the DecodedParam tree, so one
// compiled Program per operation covers every operand combination.
//
// The compiler proves at construction that every value of every program
// fits in 64 bits (UopTable::narrow): semantic analysis has already stored
// the width of every RTL expression, and no compiled value is wider than
// the expression it comes from. When any program fails the proof, Xsim
// leaves the table uninstalled and runs the interpreter. The interpreter
// also stays available on request (Xsim::setUopEnabled(false), xsim
// --no-uop) as the differential-testing oracle (tests/fuzz_diff_test.cpp):
// it evaluates on BitVector through rtl::applyBinOp, so it checks the
// narrow ALU rather than sharing it. Both paths share the engine's
// pending-write overlay, so stall and latency accounting is identical by
// construction.

#ifndef ISDL_SIM_UOP_H
#define ISDL_SIM_UOP_H

#include <cstdint>
#include <string>
#include <vector>

#include "isdl/model.h"
#include "support/bitvector.h"

namespace isdl::sim::uop {

enum class Kind : std::uint8_t {
  // Value producers (result into register `dst`). There is no "load
  // constant" uop: constants live in a shared pool preloaded into the low
  // registers of the engine's scratch file (see UopTable::constPool).
  Move,         ///< dst = reg a
  LoadParam,    ///< dst = current frame's param a encoded value (tokens)
  ReadStorage,  ///< dst = storage a (through the pending-write overlay)
  ReadElem,     ///< dst = storage a [ reg b ]
  Slice,        ///< dst = reg a [hi:lo]
  Unary,        ///< dst = unop<op>(reg a)
  Binary,       ///< dst = binop<op>(reg a, reg b)
  Concat2,      ///< dst = {reg a, reg b} (a is most significant)
  ZExt,         ///< dst = zext(reg a, hi)
  SExt,         ///< dst = sext(reg a, hi)
  Trunc,        ///< dst = trunc(reg a, hi)
  IToF,         ///< dst = itof(reg a, hi)
  FToI,         ///< dst = ftoi(reg a, hi)
  Carry,        ///< dst = carry-out of reg a + reg b (1 bit)
  Overflow,     ///< dst = signed overflow of reg a + reg b (1 bit)
  Borrow,       ///< dst = borrow-out of reg a - reg b (1 bit)
  // Control flow.
  Jump,          ///< pc = a
  BranchIfZero,  ///< pc = reg a == 0 ? b : pc+1
  BrOption,      ///< pc = tables[b][current frame's param a selected option]
  // Decoded-parameter frame stack (non-terminal recursion).
  PushFrame,  ///< enter param a's selected-option sub-parameters
  PopFrame,   ///< return to the enclosing parameter frame
  // Effects.
  SetLv,       ///< lv slot dst = {storage a, elem reg b (kNoReg => 0),
               ///<               hasSlice = flags&1, hi, lo}; bounds-checked
  StageWrite,  ///< stage reg a into lv slot dst (delayed-write queue)
  Trap,        ///< throw EvalError(traps[a])
};

/// One micro-op. Fixed 20-byte layout; variable payloads (jump tables, trap
/// messages) live in side pools in the Program so the dispatch loop walks a
/// dense array.
struct Uop {
  Kind kind;
  std::uint8_t op = 0;     ///< rtl::BinOp / rtl::UnOp ordinal (Unary/Binary)
  std::uint8_t flags = 0;  ///< SetLv: bit 0 = hasSlice
  std::uint16_t hi = 0;    ///< Slice/SetLv high bit; *Ext/Trunc/IToF/FToI width
  std::uint16_t lo = 0;    ///< Slice/SetLv low bit
  std::uint32_t dst = 0;   ///< result register; SetLv/StageWrite: lv slot
  std::uint32_t a = 0;     ///< operand register / param index / storage index /
                           ///< jump target / trap index
  std::uint32_t b = 0;     ///< 2nd operand register / table index
};

/// Sentinel for "no element register" (SetLv of a non-addressed storage).
inline constexpr std::uint32_t kNoReg = 0xffffffffu;

/// A compiled micro-op program: straight-line code with explicit jumps,
/// executed over a scratch register file of `numRegs` narrow values and
/// `numLvSlots` resolved-lvalue slots (both reused across issues). Register
/// indices below the owning table's constPool().size() name preloaded
/// constants; `numRegs` includes them.
struct Program {
  std::vector<Uop> code;
  std::vector<std::vector<std::uint32_t>> tables;  ///< BrOption jump tables
  std::vector<std::string> traps;                  ///< Trap messages
  std::uint32_t numRegs = 0;
  std::uint32_t numLvSlots = 0;

  bool empty() const { return code.empty(); }
};

/// The two programs of one operation, matching the paper's two-phase cycle:
/// `action` runs in phase A (with hazard-probe retry), `sideEffects` in
/// phase B (operation side effects plus the transitive side effects of every
/// selected non-terminal option, in the interpreter's depth-first order).
struct OpPrograms {
  Program action;
  Program sideEffects;
};

/// Compiled micro-op programs for every (field, operation) of a Machine.
/// Built once at Xsim construction; immutable afterwards, so one table can
/// back any number of engines.
class UopTable {
 public:
  explicit UopTable(const Machine& machine);

  const OpPrograms& at(unsigned field, unsigned op) const {
    return byFieldOp_[field][op];
  }

  /// Total micro-ops across all programs (introspection for tests/benches).
  std::uint64_t totalUops() const;

  /// Deduplicated constants shared by every program of this table. The
  /// engine copies them once into scratch registers [0, size()) when the
  /// table is installed; programs never write those registers.
  const std::vector<BitVector>& constPool() const { return constPool_; }

  /// True when every constant, parameter, storage read and intermediate
  /// value of every program fits in 64 bits, read off the widths semantic
  /// analysis stored on the compiled RTL expressions. Only such a table can
  /// drive the engine.
  bool narrow() const { return narrow_; }

 private:
  std::vector<std::vector<OpPrograms>> byFieldOp_;
  std::vector<BitVector> constPool_;
  bool narrow_ = true;
};

/// Human-readable listing of a compiled program (debugging / docs aid).
std::string toString(const Program& p);

/// Test-only fault injection: while enabled, UopTable lowers every RTL `+`
/// as `-`, deliberately breaking the compiled engine. The conformance fuzzer
/// (src/testing) uses this to prove the differential oracle catches and
/// shrinks real lowering bugs; it is also reachable via the hidden
/// ISDL_FUZZ_INJECT_FAULT=1 environment flag of the isdl-fuzz driver. Only
/// affects tables built while the flag is on.
void setTestFaultInjection(bool enabled);
bool testFaultInjection();

}  // namespace isdl::sim::uop

#endif  // ISDL_SIM_UOP_H
