// Word-level structural netlist: the target of HGEN's ISDL-to-hardware
// lowering (paper §4). Every combinational node produces exactly one net;
// sequential state is registers (Reg nodes) and memories (Memory elements
// with combinational read ports and clocked write ports).
//
// Combinational nodes are hash-consed at birth: a builder asked for a node
// whose kind, width, inputs and payload match a live node returns that node
// (Input and Reg nodes never merge). Operations of one field extract operands
// from the same instruction bits, so their operand networks unify, the
// builders' folds see the merged nets, and resource sharing adds units
// without operand muxes.
//
// Nodes are kept in evaluation order: a combinational node reads only nets
// born before it (a Reg's inputs are state, so they may point anywhere).
// sweepDead() restores the order after resource sharing rewires consumers
// to later shared units; consumers check it once with checkLevelized().
//
// A node's input nets live in one array the netlist owns, so building a node
// allocates nothing of its own; consumers read them with ins(), and they
// change only through rewire(), setInput() and setRegInputs().
//
// The same netlist feeds three consumers:
//   * hw/verilog.h    — synthesizable-Verilog emission,
//   * synth/mapper.h  — technology mapping / area / timing estimation,
//   * synth/gatesim.h — the cycle-based netlist simulator used as the
//                       paper's "Verilog-XL" comparator.

#ifndef ISDL_HW_NETLIST_H
#define ISDL_HW_NETLIST_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rtl/ir.h"
#include "support/bitvector.h"

namespace isdl::hw {

enum class NodeKind {
  Input,    ///< external input port
  Const,    ///< literal value
  Unary,    ///< rtl::UnOp applied to ins[0]
  Binary,   ///< rtl::BinOp applied to ins[0], ins[1]
  AddSub,   ///< shared adder/subtractor: ins[2] ? ins[0]-ins[1] : ins[0]+ins[1]
  Mux,      ///< ins[0] ? ins[1] : ins[2] (sel is 1 bit)
  Slice,    ///< ins[0][hi:lo]
  Concat,   ///< {ins[0], ins[1], ...} — ins[0] is most significant
  ZExt,
  SExt,
  Trunc,
  IToF,     ///< int -> IEEE float macro block
  FToI,     ///< IEEE float -> int macro block
  Reg,      ///< clocked register; ins[0] = next value, ins[1] = enable (or -1)
  MemRead,  ///< combinational memory read; ins[0] = address
};

using NetId = int;
inline constexpr NetId kNoNet = -1;

struct Node {
  NodeKind kind = NodeKind::Const;
  unsigned width = 0;
  std::string name;        ///< optional; emitted as the Verilog wire name

  BitVector constValue;             // Const
  rtl::UnOp unOp = rtl::UnOp::BitNot;   // Unary
  rtl::BinOp binOp = rtl::BinOp::Add;   // Binary
  unsigned hi = 0, lo = 0;          // Slice
  int memId = -1;                   // MemRead

 private:
  friend class Netlist;
  /// Where Netlist::ins() finds the input nets in the netlist's array.
  std::uint32_t firstIn_ = 0, numIns_ = 0;
};

/// A clocked write port of a memory. Always full-width (read-modify-write
/// slicing is resolved by the datapath builder).
struct MemWritePort {
  NetId enable = kNoNet;  ///< 1-bit
  NetId addr = kNoNet;
  NetId data = kNoNet;
};

struct Memory {
  std::string name;
  unsigned width = 0;
  std::uint64_t depth = 0;
  std::vector<MemWritePort> writePorts;
};

struct OutputPort {
  std::string name;
  NetId net = kNoNet;
};

class Netlist {
 public:
  std::vector<Node> nodes;
  std::vector<Memory> memories;
  std::vector<OutputPort> outputs;

  // --- builders (return the net id of the new or merged node) -----------------
  // A merged node with no name takes the name offered.
  NetId addInput(std::string name, unsigned width);
  NetId addConst(const BitVector& value, std::string_view name = {});
  NetId addUnary(rtl::UnOp op, NetId a, std::string_view name = {});
  NetId addBinary(rtl::BinOp op, NetId a, NetId b, std::string_view name = {});
  NetId addAddSub(NetId a, NetId b, NetId sub, std::string_view name = {});
  NetId addMux(NetId sel, NetId whenTrue, NetId whenFalse,
               std::string_view name = {});
  NetId addSlice(NetId a, unsigned hi, unsigned lo, std::string_view name = {});
  NetId addConcat(std::span<const NetId> parts, std::string_view name = {});
  NetId addConcat(std::initializer_list<NetId> parts,
                  std::string_view name = {}) {
    return addConcat(std::span(parts.begin(), parts.size()), name);
  }
  NetId addExt(NodeKind kind, NetId a, unsigned width,
               std::string_view name = {});
  /// Creates a register whose next/enable inputs are wired later via
  /// setRegInputs (registers usually feed logic that computes their next
  /// value, so they are created first).
  NetId addReg(std::string name, unsigned width);
  void setRegInputs(NetId reg, NetId next, NetId enable = kNoNet);
  /// Redirects input k of node `id` to `net`. The node stays indexed under
  /// the shape it had (see the index below).
  void setInput(NetId id, std::size_t k, NetId net);
  int addMemory(std::string name, unsigned width, std::uint64_t depth);
  NetId addMemRead(int memId, NetId addr, std::string_view name = {});
  void addMemWrite(int memId, NetId enable, NetId addr, NetId data);
  void addOutput(std::string name, NetId net);

  unsigned widthOf(NetId id) const { return nodes[id].width; }
  /// The input nets of node `id` (Reg: {next, enable-or-kNoNet}; Concat: its
  /// parts, most significant first). Valid until the next node is added, so
  /// never pass one to addConcat.
  std::span<const NetId> ins(NetId id) const {
    const Node& n = nodes[id];
    return {ins_.data() + n.firstIn_, n.numIns_};
  }

  // --- conveniences used heavily by the datapath builder ---------------------
  /// 1-bit constants.
  NetId one() { return addConst(BitVector(1, 1)); }
  NetId zero() { return addConst(BitVector(1, 0)); }
  /// a AND b for 1-bit control nets, folding constants.
  NetId andNet(NetId a, NetId b);
  /// a OR b for 1-bit control nets, folding constants.
  NetId orNet(NetId a, NetId b);
  /// NOT a for 1-bit control nets.
  NetId notNet(NetId a);
  /// Replaces bits [hi:lo] of `base` with `part` (builds slices + concat).
  NetId withSlice(NetId base, unsigned hi, unsigned lo, NetId part);

  /// Throws IsdlError unless the netlist is in evaluation order (a cycle, or
  /// a rewired netlist not yet swept). O(nodes + edges), no allocation.
  void checkLevelized() const;

  /// Redirects every node input, write port and output from net n to to[n].
  void rewire(std::span<const NetId> to);

  /// Counts by kind (for reports and tests).
  std::size_t countNodes(NodeKind kind) const;

  /// Removes nodes unreachable from the design's roots (outputs, registers
  /// and their fan-in, memory write ports, inputs) and numbers the survivors
  /// in evaluation order, keeping every id of a netlist already in order.
  /// Returns the old->new net-id map, with kNoNet for removed nodes —
  /// callers holding net ids must remap them. When nodes were removed or
  /// moved, or an input changed since the hash-consing index was built, the
  /// index is rebuilt from the survivors by the next builder call that
  /// probes it, so a closing sweep that nothing builds on after pays for no
  /// index; a sweep with nothing to do keeps the index as it is.
  /// Throws IsdlError on a combinational cycle.
  std::vector<NetId> sweepDead();

 private:
  /// What hash-consing compares: everything of a node but its name.
  /// Builders probe with a Shape and build a Node only on a miss.
  struct Shape {
    NodeKind kind;
    unsigned width;
    std::span<const NetId> ins;
    const BitVector* constValue;
    rtl::UnOp unOp = rtl::UnOp::BitNot;
    rtl::BinOp binOp = rtl::BinOp::Add;
    unsigned hi = 0, lo = 0;
    int memId = -1;
  };
  /// One hash-consing entry: the shape hash a node was indexed under.
  struct Slot {
    std::size_t hash = 0;
    NetId id = kNoNet;  ///< kNoNet: empty
  };

  static std::size_t hashOf(const Shape& s);
  /// Returns the indexed node of `shape` (which takes `name` if it has
  /// none), else appends a node of that shape named `name`.
  NetId intern(const Shape& shape, std::string_view name);
  NetId find(const Shape& shape, std::size_t hash) const;
  void insert(std::size_t hash, NetId id);
  /// Re-inserts every entry into `slots` empty slots, keeping each probe
  /// run's order.
  void resizeIndex(std::size_t slots);
  /// Indexes the mergeable nodes in id order; of nodes alike, the first-born
  /// answers for the shape.
  void rebuildIndex();

  /// Every node's input nets, each node's as one run.
  std::vector<NetId> ins_;

  /// Hash-consing index: open addressing with linear probing over a
  /// power-of-two table, at most half full. Only probed, so node order stays
  /// creation order. A node stays under the hash of the shape it was indexed
  /// with; hits are checked against the live node, so one rewired in place
  /// (as resource sharing does) can miss a merge but is never returned for a
  /// shape it no longer has. Of two entries of one hash, the older answers
  /// first.
  std::vector<Slot> index_;
  std::size_t indexed_ = 0;     ///< occupied slots
  bool inputsChanged_ = false;  ///< a mergeable node was rewired in place
  bool indexStale_ = false;     ///< rebuild before the next probe
};

}  // namespace isdl::hw

#endif  // ISDL_HW_NETLIST_H
