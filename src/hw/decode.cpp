#include "hw/decode.h"

#include <bit>

namespace isdl::hw {

NetId buildDecodeLine(Netlist& nl, NetId word, const sim::Signature& sig,
                      std::string_view name) {
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
  if (acc == kNoNet) acc = nl.one();
  if (nl.nodes[acc].name.empty()) nl.nodes[acc].name = name;
  return acc;
}

NetId buildParamExtract(Netlist& nl, NetId word, const sim::Signature& sig,
                        unsigned p, std::string_view name) {
  const std::vector<unsigned>& bits = sig.instBitsOfParam(p);
  unsigned w = static_cast<unsigned>(bits.size());
  // Collect slices msb-first, collapsing contiguous descending runs: bits
  // k..k-r carried by instruction bits b..b-r become one Slice.
  std::vector<NetId> parts;
  int k = static_cast<int>(w) - 1;
  while (k >= 0) {
    unsigned hiBit = bits[k];
    int j = k;
    while (j > 0 && bits[j - 1] + 1 == bits[j]) --j;
    unsigned loBit = bits[j];
    parts.push_back(nl.addSlice(word, hiBit, loBit));
    k = j - 1;
  }
  const bool single = parts.size() == 1;
  NetId out = single ? parts[0] : nl.addConcat(std::move(parts));
  if (nl.nodes[out].name.empty()) nl.nodes[out].name = name;
  return out;
}

}  // namespace isdl::hw
