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
//   * The compiled-code simulator generator (sim/codegen.h) prints the same
//     records as C++ (Binder::printCpp), so the interpreted and the compiled
//     simulator share one specialisation of every decoded instruction.
//
//   * A basic block of records also gets a schedule (Block, built by
//     Binder::buildBlock on the second time Xsim reaches its leader with
//     nothing in flight): its total cycles, stalls and their attribution,
//     read off the records' write slots and reads, so the core can run the
//     block's records back to back (ExecEngine::runBlock) without the
//     per-issue scheduler. Only this module reads the record layout for it.
//
// Binding at load rather than on first issue: on every perfbench workload
// (sim, explore, power, fuzz) each decoded address of a program that runs is
// issued, so binding on demand saves no work and would cost a check on every
// issue. Xsim binds when a program loads with the bound engine selected, or
// when the engine is selected later (Xsim::setUopEnabled).
//
// Binder::narrow() reads the widest value semantic analysis recorded while it
// checked the description (Machine::widestValue): when every value fits in 64
// bits, every value a bound record can compute does. Otherwise Xsim runs the
// interpreter and no compiled-code simulator can be generated. The
// interpreter also stays available on request (Xsim::setUopEnabled(false),
// xsim --no-uop) as the differential-testing oracle
// (tests/fuzz_diff_test.cpp, tests/bound_diff_test.cpp): it walks the
// decoded parameters and evaluates on BitVector through rtl::applyBinOp, so
// it checks the binder and the narrow ALU rather than sharing them. Both
// paths run through the engine's one issue routine and stage every write
// once into its delayed-write queue (sim/core.h), so stall and latency
// accounting is identical by construction.

#ifndef ISDL_SIM_UOP_H
#define ISDL_SIM_UOP_H

#include <cstdint>
#include <string>
#include <utility>
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
  ReadStorage,  ///< dst = storage a, hi bits wide (through the pending-
                ///< write overlay)
  ReadElem,     ///< dst = storage a [ reg b ], hi bits wide
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
  Trap,        ///< throw EvalError naming trap `op` (TrapKind) of a
};

/// What a Trap uop reports. Its text is formatted only when the trap fires
/// or is printed, from the uop's operands.
enum class TrapKind : std::uint8_t {
  NoValue,          ///< non-terminal a's selected option has no value
  NoLvalue,         ///< non-terminal a's selected option has no lvalue
  WriteOutOfRange,  ///< write to storage a at the element in reg b
};

/// One micro-op. Fixed 20-byte layout, so the dispatch loop walks a dense
/// array.
struct Uop {
  Kind kind;
  std::uint8_t op = 0;     ///< rtl::BinOp / rtl::UnOp / TrapKind ordinal
  std::uint16_t hi = 0;    ///< Slice high bit; *Ext/Trunc/IToF/FToI width
  std::uint16_t lo = 0;    ///< Slice low bit
  /// ReadStorage/ReadElem: the element read, or whether the read happens at
  /// all, is decided at run time (an index some uop computes, or a read
  /// under a data-dependent branch). A block counts such reads in the
  /// heatmap as they run and every other read once from its schedule.
  bool dynamic = false;
  std::uint32_t dst = 0;   ///< result register; SetLv/StageWrite: write slot
  std::uint32_t a = 0;     ///< operand register / storage index /
                           ///< jump target / non-terminal index
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
  /// True when the record at `address` has phase-B micro-ops (side
  /// effects); the core skips an empty phase B.
  bool hasPhaseB(std::uint64_t address) const {
    return byAddress[address].phaseB != byAddress[address].end;
  }
  std::vector<Uop> code;
  /// Constants are preloaded at bind time and never written; the other
  /// registers are the record's scratch values.
  std::vector<narrow::Val> regs;
  std::vector<WriteSlot> slots;
};

/// A basic block of bound records and its schedule, fixed at bind time for
/// an entry with nothing in flight and every unit free (ExecEngine::runBlock
/// runs it). The block runs from its leader through the first instruction
/// that can stage a write to the program counter, holds the halt operation,
/// or is followed by an address with no decoded instruction.
struct Block {
  /// The addresses of the block's instructions, leader first.
  std::vector<std::uint64_t> addresses;
  /// Cycles from entry to the end of the last instruction's window, stalls
  /// included.
  std::uint64_t cycles = 0;
  /// Interlock cycles by the storage whose write forced them, and
  /// structural cycles by the field whose unit was busy, in stall order.
  std::vector<std::pair<unsigned, std::uint64_t>> dataStalls;
  std::vector<std::pair<unsigned, std::uint64_t>> structStalls;
  /// The unit the last instruction occupies: the cycle it frees, counted
  /// from entry (past `cycles` when it is still busy at exit), and its field.
  std::uint64_t busyUntil = 0;
  unsigned busyField = 0;
  /// The address after the last instruction, and whether that instruction
  /// halts.
  std::uint64_t next = 0;
  bool halts = false;

  /// The reads one run adds to the storage heatmap besides those of
  /// Uop::dynamic micro-ops: every other read of each record, by (storage,
  /// element), a phase-A read once more for each interlock retry
  /// ExecEngine::issue would make.
  struct Count {
    unsigned si;
    std::uint64_t elem;
    std::uint64_t n;
  };
  std::vector<Count> reads;
};

/// Binds decoded instructions of one machine. Immutable after construction,
/// so one binder can serve any number of programs.
class Binder {
 public:
  explicit Binder(const Machine& machine);

  /// True when every constant, parameter, storage read and intermediate
  /// value of the description fits in 64 bits: Machine::widestValue, which
  /// semantic analysis records over every operation and every non-terminal
  /// option. Only such a machine runs bound, and only such a machine can be
  /// emitted as a compiled-code simulator.
  bool narrow() const { return machine_->widestValue <= 64; }

  /// Binds every decoded instruction of `program` into `into`, replacing
  /// what it held and reusing its storage. Requires narrow().
  void bind(const DecodedProgram& program, BoundProgram& into) const;

  /// Prints the record `prog` binds at `address` as the C++ statements of
  /// one instruction of a compiled-code simulator (sim/codegen.h), one per
  /// line. Registers the record writes are declared first, constants are
  /// literals, jumps are gotos to labels L<address>_<uop>, and a trap prints
  /// `trap: <message>` and returns 2. The staged writes then commit in
  /// staging order (phase A, then phase B), setting `pcWritten` on a write
  /// to the program counter. The statements expect the generated program's
  /// names in scope: the embedded narrow ALU, one `uint64_t s<i>[depth]`
  /// array per storage and `bool pcWritten`.
  std::string printCpp(const BoundProgram& prog, std::uint64_t address) const;

  /// Builds into `out` the block whose leader is `address` of `program`,
  /// bound into `prog`, by scheduling it the way ExecEngine::issue would
  /// from an empty queue and free units. Returns false, the block being
  /// ineligible, when its stalls, write order or exit state could depend on
  /// run-time data or on more than the block:
  ///   * an interlocked (Stall > 0) write and a phase-A read of the same
  ///     storage overlap while one of them has an element computed at run
  ///     time, or one of them sits under a data-dependent RTL branch;
  ///   * a write retires before an earlier-staged write it may overlap;
  ///   * a write retires after the block's last cycle;
  ///   * a write goes to a storage wider than 64 bits;
  ///   * a record other than the leader's reads the program counter (a
  ///     slice write to it reads it too);
  ///   * an instruction that waits on an interlock computes, in phase A, an
  ///     element (a dynamic read, a SetLv) or a branch from data: the
  ///     attempt ExecEngine::issue discards runs on the stale values, so it
  ///     may trap, or read elements no schedule can know.
  /// A block also ends before an address the program counter cannot hold.
  bool buildBlock(const DecodedProgram& program, const BoundProgram& prog,
                  std::uint64_t address, Block& out) const;

 private:
  const Machine* machine_;
  bool injectFault_;  ///< testFaultInjection() when the binder was built
};

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
