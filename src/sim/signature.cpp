#include "sim/signature.h"

#include <algorithm>
#include <stdexcept>

#include "support/strings.h"

namespace isdl::sim {

namespace {

/// The low `len` bits set, 1 <= len <= 64.
std::uint64_t lowMask(unsigned len) {
  return len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
}

}  // namespace

Signature::Signature(unsigned widthBits, std::size_t numParams,
                     const std::vector<EncodeAssign>& encode)
    : width_(widthBits),
      careMask_(widthBits == 0 ? BitVector() : BitVector(widthBits)),
      constBits_(widthBits == 0 ? BitVector() : BitVector(widthBits)),
      paramMask_(widthBits == 0 ? BitVector() : BitVector(widthBits)),
      paramBits_(numParams) {
  // First pass: find each parameter's full encoded width so the bit maps can
  // be sized (assignments may arrive in any order and slice any sub-range).
  std::vector<unsigned> paramWidths(numParams, 0);
  for (const auto& ea : encode) {
    if (ea.src == EncodeAssign::Src::Param) {
      paramWidths[ea.paramIndex] =
          std::max(paramWidths[ea.paramIndex], ea.hi - ea.lo + 1);
    } else if (ea.src == EncodeAssign::Src::ParamSlice) {
      paramWidths[ea.paramIndex] =
          std::max(paramWidths[ea.paramIndex], ea.paramHi + 1);
    }
  }
  for (std::size_t p = 0; p < numParams; ++p)
    paramBits_[p].assign(paramWidths[p], ~0u);

  for (const auto& ea : encode) {
    switch (ea.src) {
      case EncodeAssign::Src::Const:
        for (unsigned b = ea.lo; b <= ea.hi; ++b) {
          careMask_.setBit(b, true);
          constBits_.setBit(b, ea.constValue.bit(b - ea.lo));
        }
        break;
      case EncodeAssign::Src::Param:
        for (unsigned b = ea.lo; b <= ea.hi; ++b) {
          paramMask_.setBit(b, true);
          paramBits_[ea.paramIndex][b - ea.lo] = b;
        }
        break;
      case EncodeAssign::Src::ParamSlice:
        for (unsigned k = ea.paramLo; k <= ea.paramHi; ++k) {
          unsigned instBit = ea.lo + (k - ea.paramLo);
          paramMask_.setBit(instBit, true);
          paramBits_[ea.paramIndex][k] = instBit;
        }
        break;
    }
  }
  if (widthBits != 0) ownedMask_ = careMask_.or_(paramMask_);

  // Cut each parameter's bit map into runs of consecutive bits, breaking at
  // every 64-bit word boundary of the instruction and of the parameter.
  runStart_.reserve(numParams + 1);
  for (std::size_t p = 0; p < numParams; ++p) {
    runStart_.push_back(static_cast<unsigned>(runs_.size()));
    const std::vector<unsigned>& bits = paramBits_[p];
    for (unsigned k = 0; k < bits.size();) {
      if (bits[k] == ~0u) {
        ++k;
        continue;
      }
      Run run{bits[k], k, 1};
      while (k + run.len < bits.size() &&
             bits[k + run.len] == run.instLo + run.len &&
             (k + run.len) % 64 != 0 && (run.instLo + run.len) % 64 != 0)
        ++run.len;
      runs_.push_back(run);
      k += run.len;
    }
  }
  runStart_.push_back(static_cast<unsigned>(runs_.size()));
}

void Signature::throwNarrowWord(const BitVector& word,
                                const char* what) const {
  throw std::out_of_range(cat("Signature::", what, ": a ", word.width(),
                              "-bit word is narrower than the ", width_,
                              "-bit signature"));
}

bool Signature::matches(const BitVector& word) const {
  if (width_ == 0) return true;
  requireWordWidth(word, "matches");
  for (unsigned i = 0; i < careMask_.numWords(); ++i)
    if ((word.word(i) ^ constBits_.word(i)) & careMask_.word(i)) return false;
  return true;
}

void Signature::assemble(BitVector& word,
                         std::span<const BitVector> paramValues) const {
  if (width_ == 0) return;
  requireWordWidth(word, "assemble");
  if (paramValues.size() < paramBits_.size())
    throw std::out_of_range(cat("Signature::assemble: ", paramValues.size(),
                                " parameter values for ", paramBits_.size(),
                                " parameters"));
  for (std::size_t p = 0; p < paramBits_.size(); ++p)
    if (paramValues[p].width() < paramBits_[p].size())
      throw std::out_of_range(cat("Signature::assemble: parameter ", p,
                                  " is ", paramValues[p].width(),
                                  " bits wide but encoded in ",
                                  paramBits_[p].size()));

  for (unsigned i = 0; i < careMask_.numWords(); ++i)
    word.setWord(i, (word.word(i) & ~careMask_.word(i)) | constBits_.word(i));
  for (std::size_t p = 0; p < paramBits_.size(); ++p) {
    const BitVector& v = paramValues[p];
    for (unsigned r = runStart_[p]; r < runStart_[p + 1]; ++r) {
      const Run& run = runs_[r];
      const std::uint64_t field = lowMask(run.len);
      const std::uint64_t bits =
          (v.word(run.paramLo / 64) >> (run.paramLo % 64)) & field;
      const unsigned wi = run.instLo / 64, shift = run.instLo % 64;
      word.setWord(wi, (word.word(wi) & ~(field << shift)) | (bits << shift));
    }
  }
}

BitVector Signature::extractParam(unsigned p, const BitVector& word) const {
  requireWordWidth(word, "extractParam");
  BitVector v(paramWidth(p));
  for (unsigned r = runStart_[p]; r < runStart_[p + 1]; ++r) {
    const Run& run = runs_[r];
    const std::uint64_t bits =
        (word.word(run.instLo / 64) >> (run.instLo % 64)) & lowMask(run.len);
    const unsigned wi = run.paramLo / 64;
    v.setWord(wi, v.word(wi) | (bits << (run.paramLo % 64)));
  }
  return v;
}

std::string Signature::toString() const {
  std::string s;
  s.reserve(width_);
  for (unsigned b = width_; b-- > 0;) {
    if (careMask_.bit(b)) {
      s += constBits_.bit(b) ? '1' : '0';
    } else if (paramMask_.bit(b)) {
      char c = 'x';
      for (std::size_t p = 0; p < paramBits_.size(); ++p) {
        for (unsigned instBit : paramBits_[p]) {
          if (instBit == b) {
            c = char('a' + (p % 26));
            break;
          }
        }
        if (c != 'x') break;
      }
      s += c;
    } else {
      s += 'x';
    }
  }
  return s;
}

bool distinguishable(const Signature& a, const Signature& b) {
  // Care bits lie below each signature's width, so the words both masks
  // have cover the overlap exactly.
  const unsigned n =
      std::min(a.careMask().numWords(), b.careMask().numWords());
  for (unsigned i = 0; i < n; ++i) {
    if (a.careMask().word(i) & b.careMask().word(i) &
        (a.constBits().word(i) ^ b.constBits().word(i)))
      return true;
  }
  return false;
}

SignatureTable::SignatureTable(const Machine& machine, DiagnosticEngine& diags)
    : machine_(&machine) {
  opSigs_.reserve(machine.fields.size());
  for (const auto& field : machine.fields) {
    std::vector<Signature> sigs;
    sigs.reserve(field.operations.size());
    for (const auto& op : field.operations) {
      sigs.emplace_back(op.costs.size * machine.wordWidth, op.params.size(),
                        op.encode);
    }
    // Decodability: every pair of operations in a field must be
    // distinguishable by constant bits (paper footnote 4: the match is
    // unique for a decodeable assembly function).
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      for (std::size_t j = i + 1; j < sigs.size(); ++j) {
        if (!distinguishable(sigs[i], sigs[j])) {
          diags.error(field.operations[j].loc,
                      cat("operations '", field.name, ".",
                          field.operations[i].name, "' and '", field.name,
                          ".", field.operations[j].name,
                          "' are not distinguishable by any constant "
                          "instruction bit; the assembly function is not "
                          "decodeable"));
          valid_ = false;
        }
      }
    }
    opSigs_.push_back(std::move(sigs));
  }

  ntSigs_.reserve(machine.nonTerminals.size());
  for (const auto& nt : machine.nonTerminals) {
    std::vector<Signature> sigs;
    sigs.reserve(nt.options.size());
    for (const auto& opt : nt.options)
      sigs.emplace_back(nt.returnWidth, opt.params.size(), opt.encode);
    if (nt.options.size() > 1) {
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        for (std::size_t j = i + 1; j < sigs.size(); ++j) {
          if (!distinguishable(sigs[i], sigs[j])) {
            diags.error(nt.loc,
                        cat("options ", i, " and ", j, " of non-terminal '",
                            nt.name,
                            "' are not distinguishable by any constant "
                            "return-value bit"));
            valid_ = false;
          }
        }
      }
    }
    ntSigs_.push_back(std::move(sigs));
  }
}

}  // namespace isdl::sim
