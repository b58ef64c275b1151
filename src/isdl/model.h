// The ISDL machine model: the in-memory representation of a parsed and
// semantically checked ISDL description (paper §2). A Machine is the single
// source of truth from which every retargetable tool is generated — the
// assembler, disassembler, XSIM simulator (sim/) and hardware model (hw/).
//
// The model mirrors the paper's six description sections:
//   format                -> Machine::wordWidth
//   global definitions    -> Machine::tokens, Machine::nonTerminals
//   storage               -> Machine::storages, Machine::aliases
//   instruction set       -> Machine::fields (lists of Operations)
//   constraints           -> Machine::constraints
//   optional arch info    -> Machine::optionalInfo, Machine::haltOp

#ifndef ISDL_ISDL_MODEL_H
#define ISDL_ISDL_MODEL_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtl/ir.h"
#include "support/bitvector.h"

namespace isdl {

// --- Global definitions ------------------------------------------------------

/// One syntactic alternative of an enumerated token, e.g. "R3" -> 3.
struct TokenMember {
  std::string syntax;   ///< assembly spelling
  std::uint64_t value;  ///< encoded value (fits in the token's width)
};

enum class TokenKind {
  Enum,       ///< finite set of named alternatives (register names, ...)
  Immediate,  ///< numeric literal in assembly
};

/// A token groups syntactically related assembly elements (paper §2.1.1).
struct TokenDef {
  std::string name;
  TokenKind kind = TokenKind::Enum;
  unsigned width = 0;      ///< bit width of the token's value
  bool isSigned = false;   ///< immediates only: literal range is signed
  std::vector<TokenMember> members;  ///< Enum only

  /// Enum: find the member value for an assembly spelling.
  std::optional<std::uint64_t> memberValue(std::string_view syntax) const;
  /// Enum: find the spelling for an encoded value (for disassembly).
  std::optional<std::string> memberSyntax(std::uint64_t value) const;
};

// --- Parameters and syntax ---------------------------------------------------

enum class ParamKind { Token, NonTerminal };

/// A formal parameter of an operation or non-terminal option.
struct Param {
  std::string name;
  ParamKind kind = ParamKind::Token;
  unsigned index = 0;  ///< into Machine::tokens or Machine::nonTerminals
  SourceLoc loc;
};

/// One element of an assembly-syntax pattern: either a literal lexeme
/// ("(", "+", ",") or a reference to a parameter.
struct SyntaxItem {
  bool isLiteral = true;
  std::string literal;     ///< when isLiteral
  unsigned paramIndex = 0; ///< when !isLiteral
};

// --- Encoding ----------------------------------------------------------------

/// One bitfield assignment (paper §2.1.3 part 2): sets instruction-word (or
/// non-terminal return-value) bits [hi..lo] from a constant or from a single
/// parameter (Axiom 1: never more than one parameter per assignment).
struct EncodeAssign {
  SourceLoc loc;
  unsigned hi = 0, lo = 0;  ///< destination bit range (hi >= lo)

  enum class Src { Const, Param, ParamSlice } src = Src::Const;
  BitVector constValue;       ///< Src::Const, width == hi-lo+1
  unsigned paramIndex = 0;    ///< Src::Param / Src::ParamSlice
  unsigned paramHi = 0, paramLo = 0;  ///< Src::ParamSlice source bits
};

// --- Costs and timing ---------------------------------------------------------

/// Paper §2.1.3 part 5. Defaults match the simplest single-cycle operation.
struct Costs {
  unsigned cycle = 1;  ///< cycles in the absence of stalls
  unsigned stall = 0;  ///< max additional cycles during a pipeline stall
  unsigned size = 1;   ///< instruction words occupied
};

/// Paper §2.1.3 part 6.
struct Timing {
  unsigned latency = 1;  ///< cycle (1-based) at which results are visible
  unsigned usage = 1;    ///< cycles the functional unit stays busy
};

// --- Non-terminals -------------------------------------------------------------

/// One option of a non-terminal. Options carry the same six parts as an
/// operation definition (paper footnote 2) plus a return value: `encode`
/// assignments target the option's return bits instead of instruction bits.
struct NtOption {
  SourceLoc loc;
  std::vector<Param> params;
  std::vector<SyntaxItem> syntax;
  std::vector<EncodeAssign> encode;

  /// Runtime value when the non-terminal is read (e.g. an addressing mode's
  /// loaded value). Null for lvalue-only or pure-immediate options.
  rtl::ExprPtr value;
  /// Storage designated when the non-terminal is written (destination
  /// addressing modes). Null if the option cannot be a destination.
  std::optional<rtl::Lvalue> lvalue;
  /// Side effects contributed by the option (e.g. post-increment).
  std::vector<rtl::StmtPtr> sideEffects;

  /// Cost/timing *deltas* added to the enclosing operation's own numbers
  /// (e.g. a memory-indirect mode adding a cycle).
  Costs extraCosts{0, 0, 0};
  Timing extraTiming{0, 0};
};

/// A non-terminal abstracts common patterns in operation definitions, most
/// prominently addressing modes (paper §2.1.1).
struct NonTerminal {
  std::string name;
  unsigned returnWidth = 0;  ///< width of the encoding contribution ($$)
  std::vector<NtOption> options;
  SourceLoc loc;

  /// Width of the runtime value when the non-terminal is read. Set by
  /// semantic analysis iff *every* option defines a `value` of one common
  /// width; 0 otherwise (using such a non-terminal as an rvalue is an error).
  unsigned valueWidth = 0;
  /// Width of the designated storage when written; set analogously from the
  /// options' `lvalue` parts.
  unsigned lvalueWidth = 0;
};

// --- Storage --------------------------------------------------------------------

enum class StorageKind {
  InstructionMemory,
  DataMemory,
  RegisterFile,
  Register,
  ControlRegister,
  MemoryMappedIO,
  ProgramCounter,
  Stack,
};

/// True for kinds addressed as name[index].
bool isAddressed(StorageKind k);

struct StorageDef {
  std::string name;
  StorageKind kind = StorageKind::Register;
  unsigned width = 0;       ///< bits per location
  std::uint64_t depth = 1;  ///< locations (1 for non-addressed kinds)
  SourceLoc loc;
};

/// Alternative name for a sub-part of the state (paper §2.1.2), e.g.
/// `alias LO = ACC[15:0];` or `alias SP = RF[15];`.
struct AliasDef {
  std::string name;
  unsigned storageIndex = 0;
  std::optional<std::uint64_t> element;  ///< fixed index into addressed kinds
  std::optional<std::pair<unsigned, unsigned>> slice;  ///< {hi, lo}
  SourceLoc loc;
};

// --- Instruction set --------------------------------------------------------------

struct Operation {
  std::string name;
  SourceLoc loc;
  std::vector<Param> params;
  std::vector<SyntaxItem> syntax;  ///< operand syntax (after the op name)
  std::vector<EncodeAssign> encode;
  std::vector<rtl::StmtPtr> action;
  std::vector<rtl::StmtPtr> sideEffects;
  Costs costs;
  Timing timing;

  /// True if the action or side effects assign the program counter (a
  /// control-flow operation); set by semantic analysis. Assignments in the
  /// options of its non-terminal operands do not count.
  bool writesPc = false;
};

/// A field groups the mutually exclusive operations of one functional unit;
/// a VLIW instruction takes one operation from each field (paper §2.1.3).
struct Field {
  std::string name;
  std::vector<Operation> operations;
  SourceLoc loc;

  /// Index of an operation named "nop" (or the unique operation with empty
  /// encoding) used when assembling instructions that omit this field;
  /// set by semantic analysis, -1 if none.
  int nopIndex = -1;

  /// Index of the operation named `opName`, or -1.
  int findOperation(std::string_view opName) const;
};

// --- Constraints --------------------------------------------------------------------

/// Reference to one operation of one field.
struct OpRef {
  unsigned fieldIndex = 0;
  unsigned opIndex = 0;

  bool operator==(const OpRef&) const = default;
};

/// `never F1.opA & F2.opB [& ...];` — the listed operations must not all be
/// instantiated in the same instruction. An instruction is valid iff every
/// constraint holds (paper §2.1.4).
struct Constraint {
  std::vector<OpRef> ops;
  SourceLoc loc;
  std::string text;  ///< original source text, for error messages
};

// --- The machine ---------------------------------------------------------------------

class Machine {
 public:
  std::string name = "unnamed";
  unsigned wordWidth = 0;

  std::vector<TokenDef> tokens;
  std::vector<NonTerminal> nonTerminals;
  std::vector<StorageDef> storages;
  std::vector<AliasDef> aliases;
  std::vector<Field> fields;
  std::vector<Constraint> constraints;
  std::map<std::string, std::string> optionalInfo;
  /// Where each optionalInfo value was written, for diagnostics.
  std::map<std::string, SourceLoc> optionalLocs;

  // --- lookups (linear scans are fine: descriptions are small) -------------
  int findToken(std::string_view n) const;
  int findNonTerminal(std::string_view n) const;
  int findStorage(std::string_view n) const;
  int findAlias(std::string_view n) const;
  int findField(std::string_view n) const;

  /// The unique ProgramCounter storage; set by semantic analysis.
  int pcIndex = -1;
  /// The unique InstructionMemory storage; set by semantic analysis.
  int imemIndex = -1;
  /// The operation named by optional-info `halt_operation = "F.op"`; set by
  /// semantic analysis, empty if none is declared (the machine then stops
  /// only on cycle budgets).
  std::optional<OpRef> haltOp;
  /// The widest value, in bits, of any RTL expression semantic analysis
  /// checked: every operation's action and side effects and every
  /// non-terminal option's value, lvalue index and side effects, constants
  /// at their inferred width. Intermediate values included, so 64 or less
  /// means every value fits a machine word (sim/uop.h: Binder::narrow).
  unsigned widestValue = 0;
  /// The data memory that `.dm` records initialise and whose width they
  /// take: the last DataMemory storage, or -1 if there is none.
  int dataMemoryIndex() const;

  /// Max over all (field, operation) of Costs::size — the widest instruction
  /// in words. Signature width = maxSizeWords * wordWidth bits.
  unsigned maxSizeWords() const;

  /// Width of a parameter's encoded value: token width or non-terminal
  /// return width.
  unsigned paramEncodingWidth(const Param& p) const;

  /// True if the given set of per-field operation choices satisfies all
  /// constraints. `choice[f]` = op index in field f, or -1 for "absent"
  /// (treated as the field's nop).
  bool satisfiesConstraints(const std::vector<int>& choice) const;
  /// As above but returns the first violated constraint (or nullptr).
  const Constraint* firstViolatedConstraint(
      const std::vector<int>& choice) const;
};

}  // namespace isdl

#endif  // ISDL_ISDL_MODEL_H
