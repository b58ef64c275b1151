#include "hw/netlist.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <ranges>
#include <utility>

#include "support/diag.h"
#include "support/strings.h"

namespace isdl::hw {

namespace {

/// Input and Reg nodes are distinct state however alike they look.
bool mergeable(const Node& n) {
  return n.kind != NodeKind::Input && n.kind != NodeKind::Reg;
}

/// 0 or 1 for a constant (any nonzero value counts as 1), else -1.
int constBit(const Node& n) {
  if (n.kind != NodeKind::Const) return -1;
  return n.constValue.isZero() ? 0 : 1;
}

/// Hash-consing index slots allocated first: a SPAM datapath indexes about
/// 200 nodes.
constexpr std::size_t kMinSlots = 512;

/// The constValue of every node but a Const.
const BitVector kNoValue;

/// Slot of `hash` in a table of 2^k slots, `shift` = 64 - k: Fibonacci
/// hashing spreads every bit of the hash over the top bits.
std::size_t home(std::size_t hash, unsigned shift) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> shift);
}

unsigned shiftFor(std::size_t slots) {
  return 64 - static_cast<unsigned>(std::countr_zero(slots));
}

}  // namespace

std::size_t Netlist::hashOf(const Shape& s) {
  // The payload packs into three words and the inputs into one word per
  // pair; each word costs one multiply.
  std::uint64_t h = s.kind == NodeKind::Const ? s.constValue->hash() : 0;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x9e3779b97f4a7c15ull; };
  mix(std::uint64_t{s.width} << 32 | static_cast<unsigned>(s.kind) << 16 |
      static_cast<unsigned>(s.unOp) << 8 | static_cast<unsigned>(s.binOp));
  mix(std::uint64_t{s.hi} << 32 | s.lo);
  mix(static_cast<std::uint32_t>(s.memId));
  auto word = [](NetId in) { return std::uint64_t{std::uint32_t(in)}; };
  for (std::size_t i = 0; i < s.ins.size(); i += 2)
    mix(word(s.ins[i]) |
        (i + 1 < s.ins.size() ? word(s.ins[i + 1]) << 32 : 0));
  return static_cast<std::size_t>(h ^ (h >> 29));
}

NetId Netlist::find(const Shape& s, std::size_t hash) const {
  if (index_.empty()) return kNoNet;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(hash, shiftFor(index_.size()));;
       i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.id == kNoNet) return kNoNet;
    if (slot.hash != hash) continue;
    const Node& n = nodes[slot.id];
    if (n.kind == s.kind && n.width == s.width && n.unOp == s.unOp &&
        n.binOp == s.binOp && n.hi == s.hi && n.lo == s.lo &&
        n.memId == s.memId && std::ranges::equal(ins(slot.id), s.ins) &&
        n.constValue == *s.constValue)
      return slot.id;
  }
}

void Netlist::insert(std::size_t hash, NetId id) {
  if (2 * (indexed_ + 1) > index_.size())
    resizeIndex(std::max(kMinSlots, 2 * index_.size()));
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(hash, shiftFor(index_.size()));
  while (index_[i].id != kNoNet) i = (i + 1) & mask;
  index_[i] = {hash, id};
  ++indexed_;
}

void Netlist::resizeIndex(std::size_t slots) {
  std::vector<Slot> old = std::exchange(index_, std::vector<Slot>(slots));
  indexed_ = 0;
  // Start after an empty slot: no probe run wraps past it, so each run is
  // re-inserted in the order it was built.
  std::size_t start = 0;
  while (start < old.size() && old[start].id != kNoNet) ++start;
  for (std::size_t k = 0; k < old.size(); ++k) {
    const Slot& slot = old[(start + k) & (old.size() - 1)];
    if (slot.id != kNoNet) insert(slot.hash, slot.id);
  }
}

void Netlist::rebuildIndex() {
  indexStale_ = inputsChanged_ = false;
  index_.assign(std::max(kMinSlots, std::bit_ceil(2 * nodes.size())), Slot{});
  indexed_ = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!mergeable(nodes[i])) continue;
    const Node& n = nodes[i];
    const Shape s{n.kind,  n.width, ins(static_cast<NetId>(i)),
                  &n.constValue,    n.unOp, n.binOp, n.hi, n.lo, n.memId};
    const std::size_t h = hashOf(s);
    if (find(s, h) == kNoNet) insert(h, static_cast<NetId>(i));
  }
}

NetId Netlist::intern(const Shape& s, std::string_view name) {
  if (indexStale_) rebuildIndex();
  const std::size_t h = hashOf(s);
  if (NetId hit = find(s, h); hit != kNoNet) {
    if (!name.empty() && nodes[hit].name.empty()) nodes[hit].name = name;
    return hit;
  }
  // Built before it is appended: `s` and `name` may point into `nodes`.
  Node n;
  n.kind = s.kind;
  n.width = s.width;
  n.name = name;
  n.firstIn_ = static_cast<std::uint32_t>(ins_.size());
  n.numIns_ = static_cast<std::uint32_t>(s.ins.size());
  ins_.insert(ins_.end(), s.ins.begin(), s.ins.end());
  n.constValue = *s.constValue;
  n.unOp = s.unOp;
  n.binOp = s.binOp;
  n.hi = s.hi;
  n.lo = s.lo;
  n.memId = s.memId;
  nodes.push_back(std::move(n));
  const auto id = static_cast<NetId>(nodes.size() - 1);
  insert(h, id);
  return id;
}

NetId Netlist::addInput(std::string name, unsigned width) {
  Node& n = nodes.emplace_back();
  n.kind = NodeKind::Input;
  n.width = width;
  n.name = std::move(name);
  return static_cast<NetId>(nodes.size() - 1);
}

NetId Netlist::addConst(const BitVector& value, std::string_view name) {
  return intern({NodeKind::Const, value.width(), {}, &value}, name);
}

NetId Netlist::addUnary(rtl::UnOp op, NetId a, std::string_view name) {
  unsigned width = nodes[a].width;
  switch (op) {
    case rtl::UnOp::LogNot:
    case rtl::UnOp::RedAnd:
    case rtl::UnOp::RedOr:
    case rtl::UnOp::RedXor:
      width = 1;
      break;
    default:
      break;
  }
  const NetId ins[] = {a};
  return intern({NodeKind::Unary, width, ins, &kNoValue, op}, name);
}

NetId Netlist::addBinary(rtl::BinOp op, NetId a, NetId b,
                         std::string_view name) {
  const unsigned width = rtl::isComparison(op) || op == rtl::BinOp::LogAnd ||
                                 op == rtl::BinOp::LogOr
                             ? 1
                             : nodes[a].width;
  const NetId ins[] = {a, b};
  return intern({NodeKind::Binary, width, ins, &kNoValue,
                 rtl::UnOp::BitNot, op},
                name);
}

NetId Netlist::addAddSub(NetId a, NetId b, NetId sub, std::string_view name) {
  const NetId ins[] = {a, b, sub};
  return intern({NodeKind::AddSub, nodes[a].width, ins, &kNoValue}, name);
}

NetId Netlist::addMux(NetId sel, NetId whenTrue, NetId whenFalse,
                      std::string_view name) {
  if (whenTrue == whenFalse) return whenTrue;  // select is irrelevant
  const NetId ins[] = {sel, whenTrue, whenFalse};
  return intern({NodeKind::Mux, nodes[whenTrue].width, ins, &kNoValue},
                name);
}

NetId Netlist::addSlice(NetId a, unsigned hi, unsigned lo,
                        std::string_view name) {
  const NetId ins[] = {a};
  return intern({NodeKind::Slice, hi - lo + 1, ins, &kNoValue,
                 rtl::UnOp::BitNot, rtl::BinOp::Add, hi, lo},
                name);
}

NetId Netlist::addConcat(std::span<const NetId> parts, std::string_view name) {
  unsigned width = 0;
  for (NetId p : parts) width += nodes[p].width;
  return intern({NodeKind::Concat, width, parts, &kNoValue}, name);
}

NetId Netlist::addExt(NodeKind kind, NetId a, unsigned width,
                      std::string_view name) {
  const NetId ins[] = {a};
  return intern({kind, width, ins, &kNoValue}, name);
}

NetId Netlist::addReg(std::string name, unsigned width) {
  Node& n = nodes.emplace_back();
  n.kind = NodeKind::Reg;
  n.width = width;
  n.name = std::move(name);
  n.firstIn_ = static_cast<std::uint32_t>(ins_.size());
  n.numIns_ = 2;
  ins_.insert(ins_.end(), {kNoNet, kNoNet});
  return static_cast<NetId>(nodes.size() - 1);
}

void Netlist::setRegInputs(NetId reg, NetId next, NetId enable) {
  setInput(reg, 0, next);
  setInput(reg, 1, enable);
}

void Netlist::setInput(NetId id, std::size_t k, NetId net) {
  ins_[nodes[id].firstIn_ + k] = net;
  inputsChanged_ = inputsChanged_ || mergeable(nodes[id]);
}

int Netlist::addMemory(std::string name, unsigned width, std::uint64_t depth) {
  Memory m;
  m.name = std::move(name);
  m.width = width;
  m.depth = depth;
  memories.push_back(std::move(m));
  return static_cast<int>(memories.size() - 1);
}

NetId Netlist::addMemRead(int memId, NetId addr, std::string_view name) {
  const NetId ins[] = {addr};
  return intern({NodeKind::MemRead, memories[memId].width, ins, &kNoValue,
                 rtl::UnOp::BitNot, rtl::BinOp::Add, 0, 0, memId},
                name);
}

void Netlist::addMemWrite(int memId, NetId enable, NetId addr, NetId data) {
  memories[memId].writePorts.push_back({enable, addr, data});
}

void Netlist::addOutput(std::string name, NetId net) {
  outputs.push_back({std::move(name), net});
}

NetId Netlist::andNet(NetId a, NetId b) {
  const int ca = constBit(nodes[a]), cb = constBit(nodes[b]);
  if (ca == 1) return b;
  if (cb == 1) return a;
  if (ca == 0 || cb == 0) return zero();
  return addBinary(rtl::BinOp::And, a, b);
}

NetId Netlist::orNet(NetId a, NetId b) {
  const int ca = constBit(nodes[a]), cb = constBit(nodes[b]);
  if (ca == 0) return b;
  if (cb == 0) return a;
  if (ca == 1 || cb == 1) return one();
  return addBinary(rtl::BinOp::Or, a, b);
}

NetId Netlist::notNet(NetId a) {
  if (const int ca = constBit(nodes[a]); ca >= 0) return ca ? zero() : one();
  return addUnary(rtl::UnOp::BitNot, a);
}

NetId Netlist::withSlice(NetId base, unsigned hi, unsigned lo, NetId part) {
  unsigned w = nodes[base].width;
  NetId parts[3];
  std::size_t count = 0;
  if (hi + 1 < w) parts[count++] = addSlice(base, w - 1, hi + 1);
  parts[count++] = part;
  if (lo > 0) parts[count++] = addSlice(base, lo - 1, 0);
  if (count == 1) return parts[0];
  return addConcat(std::span(parts, count));
}

void Netlist::checkLevelized() const {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (NetId in : ins(static_cast<NetId>(i)))
      if (nodes[i].kind != NodeKind::Reg && in >= static_cast<NetId>(i))
        throw IsdlError(cat("netlist not in evaluation order: node ", i,
                            " reads node ", in));
}

void Netlist::rewire(std::span<const NetId> to) {
  auto fix = [&](NetId& id) {
    if (id != kNoNet) id = to[id];
  };
  for (NetId& in : ins_) fix(in);
  for (auto& m : memories)
    for (auto& p : m.writePorts) {
      fix(p.enable);
      fix(p.addr);
      fix(p.data);
    }
  for (auto& out : outputs) fix(out.net);
  inputsChanged_ = true;
}

std::vector<NetId> Netlist::sweepDead() {
  const std::size_t n = nodes.size();
  // Per node: unreached (dead), live, or open on the numbering walk below.
  enum : std::uint8_t { kDead, kLive, kOpen };
  std::vector<std::uint8_t> state(n, kDead);
  std::vector<NetId> stack;
  stack.reserve(n);
  auto mark = [&](NetId id) {
    if (id != kNoNet && state[id] == kDead) {
      state[id] = kLive;
      stack.push_back(id);
    }
  };
  for (const auto& out : outputs) mark(out.net);
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes[i].kind == NodeKind::Reg || nodes[i].kind == NodeKind::Input)
      mark(static_cast<NetId>(i));
  }
  for (const auto& m : memories) {
    for (const auto& p : m.writePorts) {
      mark(p.enable);
      mark(p.addr);
      mark(p.data);
    }
  }
  while (!stack.empty()) {
    NetId id = stack.back();
    stack.pop_back();
    for (NetId in : ins(id)) mark(in);
  }

  // Number the survivors in DFS post-order over combinational reads, roots
  // in index order: a node already after its inputs keeps its place.
  std::vector<NetId> remap(n, kNoNet);
  std::vector<std::pair<NetId, std::uint32_t>> path;  // node, next input
  path.reserve(n);
  NetId numbered = 0;
  auto numberedIn = [&](NetId in) {
    return in == kNoNet || remap[in] != kNoNet;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (state[root] != kLive) continue;
    if (nodes[root].kind == NodeKind::Reg ||
        std::ranges::all_of(ins(static_cast<NetId>(root)), numberedIn)) {
      remap[root] = numbered++;  // its inputs are numbered: no walk needed
      continue;
    }
    path.push_back({static_cast<NetId>(root), 0});
    state[root] = kOpen;
    while (!path.empty()) {
      auto& [id, next] = path.back();
      const std::span<const NetId> nodeIns = ins(id);
      if (nodes[id].kind != NodeKind::Reg && next < nodeIns.size()) {
        NetId in = nodeIns[next++];
        if (numberedIn(in)) continue;
        if (state[in] == kOpen)
          throw IsdlError("combinational cycle in generated netlist");
        state[in] = kOpen;
        path.push_back({in, 0});
        continue;
      }
      remap[id] = numbered++;
      path.pop_back();
    }
  }
  // Nothing dead and nothing out of order: every id, input and index entry
  // stands. The index answers for the shapes it holds unless an input
  // changed in place since it was built.
  if (std::ranges::equal(remap, std::views::iota(NetId{0}, NetId(n)))) {
    indexStale_ = indexStale_ || inputsChanged_;
    return remap;
  }
  // Lay the survivors' inputs out afresh, leaving the dead nodes' behind.
  std::vector<NetId> keptIns(ins_.size());
  std::uint32_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (remap[i] == kNoNet) continue;
    const std::span<const NetId> old = ins(static_cast<NetId>(i));
    nodes[i].firstIn_ = used;
    for (NetId in : old) keptIns[used++] = in;
  }
  keptIns.resize(used);
  ins_ = std::move(keptIns);
  // Nodes before the first one that moves keep their place; the rest move
  // to their new ids, all of them past it.
  std::size_t first = 0;
  while (remap[first] == static_cast<NetId>(first)) ++first;
  std::vector<Node> tail(std::make_move_iterator(nodes.begin() + first),
                         std::make_move_iterator(nodes.end()));
  nodes.resize(static_cast<std::size_t>(numbered));
  for (std::size_t i = first; i < n; ++i)
    if (remap[i] != kNoNet) nodes[remap[i]] = std::move(tail[i - first]);
  rewire(remap);
  indexStale_ = true;
  return remap;
}

std::size_t Netlist::countNodes(NodeKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(nodes.begin(), nodes.end(),
                    [&](const Node& n) { return n.kind == kind; }));
}

}  // namespace isdl::hw
