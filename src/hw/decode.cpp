#include "hw/decode.h"

#include <bit>

namespace isdl::hw {

NetId buildDecodeLine(Netlist& nl, NetId word, const sim::Signature& sig) {
  NetId acc = kNoNet;
  const BitVector& care = sig.careMask();
  for (unsigned w = 0; w < care.numWords(); ++w) {
    const std::uint64_t value = sig.constBits().word(w);
    for (std::uint64_t m = care.word(w); m != 0; m &= m - 1) {
      const unsigned b = 64 * w + static_cast<unsigned>(std::countr_zero(m));
      NetId bit = nl.addSlice(word, b, b);
      NetId literal = (value >> (b % 64)) & 1 ? bit : nl.notNet(bit);
      acc = acc == kNoNet ? literal : nl.andNet(acc, literal);
    }
  }
  // An all-don't-care signature matches unconditionally.
  return acc == kNoNet ? nl.one() : acc;
}

NetId buildParamExtract(Netlist& nl, NetId word, const sim::Signature& sig,
                        unsigned p) {
  const std::vector<unsigned>& bits = sig.instBitsOfParam(p);
  unsigned w = static_cast<unsigned>(bits.size());
  // Collect slices msb-first, collapsing contiguous descending runs: bits
  // k..k-r carried by instruction bits b..b-r become one Slice. Most
  // parameters are one run, which needs no list and no Concat.
  NetId first = kNoNet;
  std::vector<NetId> parts;
  int k = static_cast<int>(w) - 1;
  while (k >= 0) {
    unsigned hiBit = bits[k];
    int j = k;
    while (j > 0 && bits[j - 1] + 1 == bits[j]) --j;
    unsigned loBit = bits[j];
    const NetId part = nl.addSlice(word, hiBit, loBit);
    if (first == kNoNet) {
      first = part;
    } else {
      if (parts.empty()) parts.push_back(first);
      parts.push_back(part);
    }
    k = j - 1;
  }
  return parts.empty() ? first : nl.addConcat(parts);
}

}  // namespace isdl::hw
