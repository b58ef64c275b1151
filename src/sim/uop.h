// Instruction-set compiled execution (the XSIM fast path).
//
// The interpreter in sim/core.cpp re-walks the rtl::Expr AST of every
// operation action for every issued instruction, re-resolving non-terminal
// option values recursively through virtual EvalContext calls each time. The
// generated-simulator literature (Reshadi & Dutt; Blanqui et al., see
// PAPERS.md) gets its cycle-accurate speed from decoding each instruction
// once and specialising its operation templates with that instruction's
// operand values. This header is that layer:
//
//   * Every decoded instruction binds once, when the program loads, into one
//     flat record (BoundProgram::Record): a straight-line micro-op range per
//     phase covering every field. Operand values are constants of the
//     record, the non-terminal option each operand selected is resolved
//     away (its value, lvalue and side-effect trees are compiled in place),
//     and operators whose operands are all constants fold through the shared
//     ≤64-bit ALU of rtl/narrow_alu.h. Each write slot carries its field's
//     effective latency and stall.
//   * The processing core runs a phase with one switch-dispatch loop
//     (ExecEngine::execProgram, defined in uop.cpp next to the binder that
//     writes the records) over the record's own registers: no recursion, no
//     virtual calls, no per-issue allocation and no walk of the decoded
//     parameters. The core names an instruction by its address and a phase;
//     only this module knows the record layout.
//
// Binding at load rather than on first issue: on every perfbench workload
// (sim, explore, power, fuzz) each decoded address of a program that runs is
// issued, so binding on demand saves no work and would cost a check on every
// issue. Xsim binds when a program loads with the bound engine selected, or
// when the engine is selected later (Xsim::setUopEnabled).
//
// isNarrow() proves from the widths semantic analysis stored on every RTL
// expression that every value a bound record can compute fits in 64 bits.
// When the proof fails, Xsim runs the interpreter. The interpreter also stays
// available on request (Xsim::setUopEnabled(false), xsim --no-uop) as the
// differential-testing oracle (tests/fuzz_diff_test.cpp,
// tests/bound_diff_test.cpp): it walks the decoded parameters and evaluates
// on BitVector through rtl::applyBinOp, so it checks the binder and the
// narrow ALU rather than sharing them. Both paths share the engine's
// pending-write overlay, so stall and latency accounting is identical by
// construction.

#ifndef ISDL_SIM_UOP_H
#define ISDL_SIM_UOP_H

#include <cstdint>
#include <string>
#include <vector>

#include "isdl/model.h"
#include "rtl/narrow_alu.h"
#include "sim/decoded.h"

namespace isdl::sim::uop {

enum class Kind : std::uint8_t {
  // Value producers (result into register `dst`). There is no "load
  // constant" uop: constants, operand values included, are registers the
  // binder preloads.
  Move,         ///< dst = reg a
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
  // Control flow (data-dependent only: RTL `if` and `?:`).
  Jump,          ///< pc = a
  BranchIfZero,  ///< pc = reg a == 0 ? b : pc+1
  // Effects.
  SetLv,       ///< write slot dst's element = reg b; range-checked
               ///< against storage a (its other fields are bound)
  StageWrite,  ///< stage reg a into write slot dst (delayed-write queue)
  Trap,        ///< throw EvalError(traps[a])
};

/// One micro-op. Fixed 20-byte layout; trap messages live in a side pool so
/// the dispatch loop walks a dense array.
struct Uop {
  Kind kind;
  std::uint8_t op = 0;     ///< rtl::BinOp / rtl::UnOp ordinal (Unary/Binary)
  std::uint16_t hi = 0;    ///< Slice high bit; *Ext/Trunc/IToF/FToI width
  std::uint16_t lo = 0;    ///< Slice low bit
  std::uint32_t dst = 0;   ///< result register; SetLv/StageWrite: write slot
  std::uint32_t a = 0;     ///< operand register / storage index /
                           ///< jump target / trap index
  std::uint32_t b = 0;     ///< 2nd operand register / branch target
};

/// Where and when one RTL assignment of a bound instruction writes. Every
/// field but `elem` is fixed at bind time; `elem` too when the index is a
/// constant, else a SetLv uop fills it in at run time.
struct WriteSlot {
  unsigned si = 0;
  std::uint64_t elem = 0;
  bool hasSlice = false;
  unsigned hi = 0, lo = 0;
  unsigned latency = 1;    ///< the writing field's effective Latency
  unsigned stallCost = 0;  ///< the writing field's effective Stall
};

/// The bound form of a loaded program. Each record's code, registers and
/// write slots sit in shared arenas, so binding an instruction appends and
/// issuing one indexes; register, slot and jump operands are relative to
/// their record. An address with no decoded instruction has an empty record.
struct BoundProgram {
  struct Record {
    std::uint32_t code = 0;    ///< first uop in `code`
    std::uint32_t phaseB = 0;  ///< phase A is [0, phaseB), relative
    std::uint32_t end = 0;     ///< phase B is [phaseB, end), relative
    std::uint32_t regs = 0;    ///< first register in `regs`
    std::uint32_t slots = 0;   ///< first write slot in `slots`
  };

  std::vector<Record> byAddress;  ///< parallel to DecodedProgram::byAddress
  std::vector<Uop> code;
  /// Constants are preloaded at bind time and never written; the other
  /// registers are the record's scratch values.
  std::vector<narrow::Val> regs;
  std::vector<WriteSlot> slots;
  std::vector<std::string> traps;
};

/// True when every constant, parameter, storage read and intermediate value
/// any operation of `m` can compute fits in 64 bits, read off the widths
/// semantic analysis stored on the RTL expressions (an operand that selects
/// a non-terminal option brings that option's value, lvalue and side-effect
/// trees). Only such a machine runs bound, and only such a machine can be
/// emitted as a compiled-code simulator (sim/codegen.h).
bool isNarrow(const Machine& m);

/// Binds decoded instructions of one machine. Immutable after construction,
/// so one binder can serve any number of programs.
class Binder {
 public:
  explicit Binder(const Machine& machine);

  /// Same as isNarrow(machine), computed once.
  bool narrow() const { return narrow_; }

  /// Binds every decoded instruction of `program`. Requires narrow().
  BoundProgram bind(const DecodedProgram& program) const;

 private:
  const Machine* machine_;
  bool narrow_;
  bool injectFault_;  ///< testFaultInjection() when the binder was built
};

/// Human-readable listing of one bound record (debugging / docs aid).
std::string toString(const BoundProgram& prog, std::uint64_t address);

/// Test-only fault injection: while enabled, binders built from then on lower
/// every RTL `+` as `-`, deliberately breaking the bound engine. The
/// conformance fuzzer (src/testing) uses this to prove the differential
/// oracle catches and shrinks real lowering bugs; it is also reachable via
/// the hidden ISDL_FUZZ_INJECT_FAULT=1 environment flag of the isdl-fuzz
/// driver.
void setTestFaultInjection(bool enabled);
bool testFaultInjection();

}  // namespace isdl::sim::uop

#endif  // ISDL_SIM_UOP_H
