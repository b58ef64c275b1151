#include "hw/decode.h"

#include "support/strings.h"

namespace isdl::hw {

NetId buildDecodeLine(Netlist& nl, NetId word, const sim::Signature& sig,
                      const std::string& name) {
  NetId acc = kNoNet;
  for (unsigned b = 0; b < sig.widthBits(); ++b) {
    if (!sig.careMask().bit(b)) continue;
    NetId bit = nl.addSlice(word, b, b);
    NetId literal = sig.constBits().bit(b) ? bit : nl.notNet(bit);
    acc = acc == kNoNet ? literal : nl.andNet(acc, literal);
  }
  // An all-don't-care signature matches unconditionally.
  if (acc == kNoNet) acc = nl.one();
  if (nl.nodes[acc].name.empty()) nl.nodes[acc].name = name;
  return acc;
}

NetId buildParamExtract(Netlist& nl, NetId word, const sim::Signature& sig,
                        unsigned p, const std::string& name) {
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
