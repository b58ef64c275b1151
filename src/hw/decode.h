// Decode-logic generation (paper §4.2). The decode line of an operation is
// the product of the literals of its signature's constant bits (e.g.
// I9'·I8·I6'·I5 for op2 in Figure 3), built as an AND tree over instruction
// bits. Parameter extraction reverses the encoding: each parameter value is
// a concatenation of (possibly scattered) instruction bits.
//
// The same functions generate the option-select lines and sub-parameter
// extraction for non-terminals, operating on the non-terminal's extracted
// return-value net instead of the instruction net.

#ifndef ISDL_HW_DECODE_H
#define ISDL_HW_DECODE_H

#include "hw/netlist.h"
#include "sim/signature.h"

namespace isdl::hw {

/// Builds the two-level decode line for `sig` over the instruction net
/// `word` (word.width may exceed sig.widthBits; extra bits are ignored).
/// Returns a 1-bit net that is high iff the constant bits match.
NetId buildDecodeLine(Netlist& nl, NetId word, const sim::Signature& sig);

/// Builds the extraction network for parameter `p` of `sig`: a concatenation
/// of the instruction bits that carry it, with contiguous runs collapsed
/// into single slices.
NetId buildParamExtract(Netlist& nl, NetId word, const sim::Signature& sig,
                        unsigned p);

}  // namespace isdl::hw

#endif  // ISDL_HW_DECODE_H
