// Bit-true evaluation of RTL expressions, on BitVector values of any width.
// The XSIM interpreter (sim/core.cpp) evaluates through it, supplying
// architectural state and decoded parameter values; the operator helpers
// (applyBinOp, applyUnOp and the IEEE-754 conversions) also serve the gate
// simulator's reference path for nets wider than 64 bits (synth/gatesim.cpp).
//
// Expressions must have been width-checked: every node carries a non-zero
// width and operand widths satisfy the operator's contract.

#ifndef ISDL_RTL_EVAL_H
#define ISDL_RTL_EVAL_H

#include "rtl/ir.h"
#include "support/bitvector.h"

namespace isdl::rtl {

/// Supplies the dynamic inputs of expression evaluation.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// Runtime value of parameter `idx` of the enclosing operation/option.
  virtual BitVector paramValue(unsigned idx) const = 0;
  /// Current value of a non-addressed storage element.
  virtual BitVector readStorage(unsigned storageIndex) const = 0;
  /// Current value of location `index` of an addressed storage element.
  /// Out-of-range indices are the context's business (the simulator traps
  /// them as runtime errors).
  virtual BitVector readElement(unsigned storageIndex,
                                const BitVector& index) const = 0;
};

/// Thrown when evaluation hits a runtime trap: an out-of-range access or
/// write, a write conflict, or an operand the context cannot supply.
class EvalError : public std::runtime_error {
 public:
  explicit EvalError(const std::string& what) : std::runtime_error(what) {}
};

/// Evaluates `e` under `ctx`. The result width equals e.width.
BitVector evalExpr(const Expr& e, const EvalContext& ctx);

/// Applies a binary operator to width-checked operands (exposed for tests
/// and for the netlist simulator's operator nodes).
BitVector applyBinOp(BinOp op, const BitVector& a, const BitVector& b);
/// Applies a unary operator.
BitVector applyUnOp(UnOp op, const BitVector& a);

// IEEE-754 helpers on raw bits (width 32 or 64).
BitVector floatBinOp(BinOp op, const BitVector& a, const BitVector& b);
BitVector intToFloat(const BitVector& a, unsigned floatWidth);
BitVector floatToInt(const BitVector& a, unsigned intWidth);

}  // namespace isdl::rtl

#endif  // ISDL_RTL_EVAL_H
