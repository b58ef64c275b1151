// RTL IR: the register-transfer expressions and statements that describe
// operation actions and side effects in an ISDL description (paper §2.1.3,
// operation parts 3 and 4).
//
// The IR is produced by the ISDL parser, width-checked by semantic analysis
// (isdl/sema.h), interpreted by the simulator's processing core (sim/), and
// lowered to a structural netlist by the hardware generator (hw/). All
// values are fixed-width BitVectors; semantics are bit-true two's
// complement, with IEEE-754 helpers for floating-point architectures.

#ifndef ISDL_RTL_IR_H
#define ISDL_RTL_IR_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtl/narrow_alu.h"
#include "support/bitvector.h"
#include "support/diag.h"

namespace isdl::rtl {

// The operator sets are defined next to their ≤64-bit semantics.
using narrow::BinOp;
using narrow::UnOp;

const char* unOpName(UnOp op);
const char* binOpName(BinOp op);
bool isComparison(BinOp op);
bool isFloatOp(BinOp op);

enum class ExprKind {
  Const,     ///< literal; constant.width() may be 0 ("unsized") until checked
  Param,     ///< value of an operation/option parameter
  Read,      ///< whole non-addressed storage element (register, PC, ...)
  ReadElem,  ///< addressed storage element: storage[index-expr]
  Slice,     ///< operand[hi:lo], constant bounds
  Unary,
  Binary,
  Ternary,   ///< cond ? a : b
  ZExt,      ///< zext(x, w)
  SExt,      ///< sext(x, w)
  Trunc,     ///< trunc(x, w)
  Concat,    ///< concat(a, b, ...) — a is most significant
  Carry,     ///< carry(a, b): carry-out of a+b, 1 bit
  Overflow,  ///< overflow(a, b): signed overflow of a+b, 1 bit
  Borrow,    ///< borrow(a, b): borrow-out of a-b, 1 bit
  IToF,      ///< itof(x, w): signed int -> float of width w (32/64)
  FToI,      ///< ftoi(x, w): float -> signed int of width w (truncating)
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A single RTL expression node. One struct covers all kinds; only the
/// fields relevant to `kind` are meaningful. Children live in `operands`.
struct Expr {
  ExprKind kind;
  SourceLoc loc;

  /// Result width in bits. 0 until semantic analysis runs (except nodes whose
  /// width is syntactically fixed, which the parser fills in).
  unsigned width = 0;

  std::vector<ExprPtr> operands;

  // Kind-specific payload:
  BitVector constant;      // Const
  unsigned paramIndex = 0; // Param — index into the enclosing def's params
  unsigned storageIndex = 0;  // Read/ReadElem — index into Machine::storages
  unsigned sliceHi = 0, sliceLo = 0;  // Slice
  UnOp unOp = UnOp::BitNot;           // Unary
  BinOp binOp = BinOp::Add;           // Binary
  unsigned extWidth = 0;              // ZExt/SExt/Trunc/IToF/FToI target width

  Expr(ExprKind k, SourceLoc l) : kind(k), loc(l) {}

  // --- builders --------------------------------------------------------------
  static ExprPtr makeConst(BitVector v, SourceLoc loc = {});
  static ExprPtr makeParam(unsigned paramIndex, SourceLoc loc = {});
  static ExprPtr makeRead(unsigned storageIndex, SourceLoc loc = {});
  static ExprPtr makeReadElem(unsigned storageIndex, ExprPtr index,
                              SourceLoc loc = {});
  static ExprPtr makeSlice(ExprPtr op, unsigned hi, unsigned lo,
                           SourceLoc loc = {});
  static ExprPtr makeUnary(UnOp op, ExprPtr a, SourceLoc loc = {});
  static ExprPtr makeBinary(BinOp op, ExprPtr a, ExprPtr b,
                            SourceLoc loc = {});
  static ExprPtr makeTernary(ExprPtr c, ExprPtr a, ExprPtr b,
                             SourceLoc loc = {});
  static ExprPtr makeExt(ExprKind k, ExprPtr a, unsigned w,
                         SourceLoc loc = {});
  static ExprPtr makeConcat(std::vector<ExprPtr> parts, SourceLoc loc = {});
};

/// Destination of a register transfer. Either a whole storage element, an
/// addressed element (`M[e]`), a bit-slice of either, or an lvalue-valued
/// parameter (a non-terminal whose selected option defines an lvalue).
struct Lvalue {
  SourceLoc loc;
  bool isParam = false;
  unsigned paramIndex = 0;    // when isParam
  unsigned storageIndex = 0;  // when !isParam
  ExprPtr index;              // optional: element address for addressed kinds
  bool hasSlice = false;
  unsigned sliceHi = 0, sliceLo = 0;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind {
  Assign,  ///< lvalue <- expr
  If,      ///< if (cond) { ... } [else { ... }]
};

struct Stmt {
  StmtKind kind;
  SourceLoc loc;

  // Assign:
  Lvalue dest;
  ExprPtr value;

  // If:
  ExprPtr cond;
  std::vector<StmtPtr> thenStmts;
  std::vector<StmtPtr> elseStmts;

  Stmt(StmtKind k, SourceLoc l) : kind(k), loc(l) {}

  static StmtPtr makeAssign(Lvalue dest, ExprPtr value, SourceLoc loc = {});
  static StmtPtr makeIf(ExprPtr cond, std::vector<StmtPtr> thenStmts,
                        std::vector<StmtPtr> elseStmts, SourceLoc loc = {});
};

/// Human-readable rendering of an expression.
std::string toString(const Expr& e);

}  // namespace isdl::rtl

#endif  // ISDL_RTL_IR_H
