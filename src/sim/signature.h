// Operation signatures (paper §3.3.2, Figure 3).
//
// Each operation in every field — and each option of every non-terminal —
// gets a signature: an image of the instruction word (or of the option's
// return value) where every bit is one of
//   * don't care        (the assembly function never sets it),
//   * a constant 0/1    (set by a Const bitfield assignment), or
//   * a parameter bit   (set from bit k of parameter p — Axiom 1 guarantees
//                        a single parameter per assignment).
//
// The signature supports both directions of the assembly function:
//   assemble(params)  — paint constants and parameter bits into a word, and
//   reverse(word)     — match the constant part, then gather each
//                       parameter's scattered bits back together.
//
// SignatureTable precomputes signatures for a whole Machine and validates
// decodability: within a field (and within a non-terminal) every pair of
// signatures must differ in at least one bit where both are constant,
// otherwise the "unique match" guarantee of the disassembly algorithm
// (Figure 4) does not hold.

#ifndef ISDL_SIM_SIGNATURE_H
#define ISDL_SIM_SIGNATURE_H

#include <initializer_list>
#include <span>
#include <vector>

#include "isdl/model.h"
#include "support/bitvector.h"
#include "support/diag.h"

namespace isdl::sim {

class Signature {
 public:
  /// Builds the signature of `encode` over `widthBits` instruction bits for
  /// a definition with `numParams` parameters.
  Signature(unsigned widthBits, std::size_t numParams,
            const std::vector<EncodeAssign>& encode);

  unsigned widthBits() const { return width_; }

  /// Bits the assembly function sets to a constant.
  const BitVector& careMask() const { return careMask_; }
  /// Constant values on careMask bits (zero elsewhere).
  const BitVector& constBits() const { return constBits_; }
  /// Bits set from any parameter.
  const BitVector& paramMask() const { return paramMask_; }
  /// Bits this signature sets at all: careMask | paramMask.
  const BitVector& ownedMask() const { return ownedMask_; }

  /// True if `word`'s constant bits match this signature. `word` may be
  /// wider than the signature (extra bits ignored) but not narrower
  /// (std::out_of_range).
  bool matches(const BitVector& word) const;

  /// Paints constants and parameter values into `word` (in place). Bits this
  /// signature does not own are left untouched. `paramValues[i]` must be at
  /// least as wide as paramWidth(i), and `word` at least as wide as the
  /// signature; otherwise std::out_of_range.
  void assemble(BitVector& word,
                std::span<const BitVector> paramValues) const;
  void assemble(BitVector& word,
                std::initializer_list<BitVector> paramValues) const {
    assemble(word, std::span(paramValues.begin(), paramValues.size()));
  }

  /// Gathers the encoded value of parameter `p` back out of `word` (at least
  /// as wide as the signature; otherwise std::out_of_range).
  BitVector extractParam(unsigned p, const BitVector& word) const;

  /// Declared width of parameter p's encoded value.
  unsigned paramWidth(unsigned p) const {
    return static_cast<unsigned>(paramBits_[p].size());
  }

  /// instBitsOfParam(p)[k] = instruction bit that carries bit k of param p.
  /// Exposed for the hardware decode generator, which turns it into
  /// extraction wiring.
  const std::vector<unsigned>& instBitsOfParam(unsigned p) const {
    return paramBits_[p];
  }

  /// Render like Figure 3: 'x' for don't care, '0'/'1' for constants, letters
  /// for parameter bits (a = param 0, b = param 1, ...). Msb first.
  std::string toString() const;

 private:
  /// Parameter bits [paramLo, paramLo + len) travel in instruction bits
  /// [instLo, instLo + len). A run crosses no 64-bit word boundary on
  /// either side, so it moves with one shift and one mask.
  struct Run {
    unsigned instLo;
    unsigned paramLo;
    unsigned len;
  };

  unsigned width_;
  BitVector careMask_;
  BitVector constBits_;
  BitVector paramMask_;
  BitVector ownedMask_;
  /// paramBits_[p][k] = instruction bit carrying bit k of parameter p.
  std::vector<std::vector<unsigned>> paramBits_;
  /// The runs of every parameter, parameter 0's first; parameter p's are
  /// runs_[runStart_[p] .. runStart_[p + 1]).
  std::vector<Run> runs_;
  std::vector<unsigned> runStart_;

  /// Throws std::out_of_range naming `what` if `word` is narrower than the
  /// signature.
  void requireWordWidth(const BitVector& word, const char* what) const {
    if (word.width() < width_) throwNarrowWord(word, what);
  }
  [[noreturn]] void throwNarrowWord(const BitVector& word,
                                    const char* what) const;
};

/// True if the two signatures are distinguishable: some bit is constant in
/// both and differs. Widths may differ; only the overlap is compared.
bool distinguishable(const Signature& a, const Signature& b);

/// All signatures of a machine plus derived decode metadata.
class SignatureTable {
 public:
  /// Builds signatures for every operation and non-terminal option and
  /// checks decodability. Errors are reported through `diags`.
  SignatureTable(const Machine& machine, DiagnosticEngine& diags);

  const Machine& machine() const { return *machine_; }

  const Signature& operation(unsigned field, unsigned op) const {
    return opSigs_[field][op];
  }
  const Signature& ntOption(unsigned nt, unsigned option) const {
    return ntSigs_[nt][option];
  }

  bool valid() const { return valid_; }

 private:
  const Machine* machine_;
  std::vector<std::vector<Signature>> opSigs_;  // [field][op]
  std::vector<std::vector<Signature>> ntSigs_;  // [nt][option]
  bool valid_ = true;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_SIGNATURE_H
