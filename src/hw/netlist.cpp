#include "hw/netlist.h"

#include <algorithm>
#include <tuple>

#include "support/diag.h"
#include "support/strings.h"

namespace isdl::hw {

namespace {

/// Input and Reg nodes are distinct state however alike they look.
bool mergeable(const Node& n) {
  return n.kind != NodeKind::Input && n.kind != NodeKind::Reg;
}

/// What hash-consing compares: everything but the name.
auto shape(const Node& n) {
  return std::tie(n.kind, n.width, n.ins, n.unOp, n.binOp, n.hi, n.lo,
                  n.memId, n.constValue);
}

/// Hashes the parts of the shape that tell nodes apart in practice.
std::size_t shapeHash(const Node& n) {
  std::size_t h = n.constValue.hash();
  auto mix = [&h](std::size_t v) { h = (h ^ v) * 0x100000001b3ull; };
  for (NetId in : n.ins) mix(static_cast<std::size_t>(in));
  for (unsigned v : {static_cast<unsigned>(n.kind),
                     static_cast<unsigned>(n.binOp), n.width, n.hi, n.lo})
    mix(v);
  return h;
}

}  // namespace

const char* nodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::Input: return "input";
    case NodeKind::Const: return "const";
    case NodeKind::Unary: return "unary";
    case NodeKind::Binary: return "binary";
    case NodeKind::AddSub: return "addsub";
    case NodeKind::Mux: return "mux";
    case NodeKind::Slice: return "slice";
    case NodeKind::Concat: return "concat";
    case NodeKind::ZExt: return "zext";
    case NodeKind::SExt: return "sext";
    case NodeKind::Trunc: return "trunc";
    case NodeKind::IToF: return "itof";
    case NodeKind::FToI: return "ftoi";
    case NodeKind::Reg: return "reg";
    case NodeKind::MemRead: return "memread";
  }
  return "?";
}

NetId Netlist::find(const Node& node, std::size_t hash) const {
  auto [it, end] = index_.equal_range(hash);
  for (; it != end; ++it)
    if (shape(nodes[it->second]) == shape(node)) return it->second;
  return kNoNet;
}

NetId Netlist::push(Node node) {
  const bool merge = mergeable(node);
  const std::size_t h = merge ? shapeHash(node) : 0;
  if (NetId hit = merge ? find(node, h) : kNoNet; hit != kNoNet) {
    if (nodes[hit].name.empty()) nodes[hit].name = std::move(node.name);
    return hit;
  }
  nodes.push_back(std::move(node));
  const auto id = static_cast<NetId>(nodes.size() - 1);
  if (merge) index_.emplace(h, id);
  return id;
}

NetId Netlist::addInput(std::string name, unsigned width) {
  Node n;
  n.kind = NodeKind::Input;
  n.width = width;
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addConst(BitVector value, std::string name) {
  Node n;
  n.kind = NodeKind::Const;
  n.width = value.width();
  n.constValue = std::move(value);
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addUnary(rtl::UnOp op, NetId a, std::string name) {
  Node n;
  n.kind = NodeKind::Unary;
  n.unOp = op;
  switch (op) {
    case rtl::UnOp::LogNot:
    case rtl::UnOp::RedAnd:
    case rtl::UnOp::RedOr:
    case rtl::UnOp::RedXor:
      n.width = 1;
      break;
    default:
      n.width = nodes[a].width;
  }
  n.ins = {a};
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addBinary(rtl::BinOp op, NetId a, NetId b, std::string name) {
  Node n;
  n.kind = NodeKind::Binary;
  n.binOp = op;
  n.width = rtl::isComparison(op) || op == rtl::BinOp::LogAnd ||
                    op == rtl::BinOp::LogOr
                ? 1
                : nodes[a].width;
  n.ins = {a, b};
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addAddSub(NetId a, NetId b, NetId sub, std::string name) {
  Node n;
  n.kind = NodeKind::AddSub;
  n.width = nodes[a].width;
  n.ins = {a, b, sub};
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addMux(NetId sel, NetId whenTrue, NetId whenFalse,
                      std::string name) {
  if (whenTrue == whenFalse) return whenTrue;  // select is irrelevant
  Node n;
  n.kind = NodeKind::Mux;
  n.width = nodes[whenTrue].width;
  n.ins = {sel, whenTrue, whenFalse};
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addSlice(NetId a, unsigned hi, unsigned lo, std::string name) {
  Node n;
  n.kind = NodeKind::Slice;
  n.width = hi - lo + 1;
  n.hi = hi;
  n.lo = lo;
  n.ins = {a};
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addConcat(std::vector<NetId> parts, std::string name) {
  Node n;
  n.kind = NodeKind::Concat;
  n.width = 0;
  for (NetId p : parts) n.width += nodes[p].width;
  n.ins = std::move(parts);
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addExt(NodeKind kind, NetId a, unsigned width,
                      std::string name) {
  Node n;
  n.kind = kind;
  n.width = width;
  n.ins = {a};
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Netlist::addReg(std::string name, unsigned width) {
  Node n;
  n.kind = NodeKind::Reg;
  n.width = width;
  n.name = std::move(name);
  n.ins = {kNoNet, kNoNet};
  return push(std::move(n));
}

void Netlist::setRegInputs(NetId reg, NetId next, NetId enable) {
  nodes[reg].ins = {next, enable};
}

int Netlist::addMemory(std::string name, unsigned width, std::uint64_t depth) {
  Memory m;
  m.name = std::move(name);
  m.width = width;
  m.depth = depth;
  memories.push_back(std::move(m));
  return static_cast<int>(memories.size() - 1);
}

NetId Netlist::addMemRead(int memId, NetId addr, std::string name) {
  Node n;
  n.kind = NodeKind::MemRead;
  n.width = memories[memId].width;
  n.memId = memId;
  n.ins = {addr};
  n.name = std::move(name);
  return push(std::move(n));
}

void Netlist::addMemWrite(int memId, NetId enable, NetId addr, NetId data) {
  memories[memId].writePorts.push_back({enable, addr, data});
}

void Netlist::addOutput(std::string name, NetId net) {
  outputs.push_back({std::move(name), net});
}

NetId Netlist::andNet(NetId a, NetId b) {
  auto constVal = [&](NetId x) -> int {
    if (nodes[x].kind != NodeKind::Const) return -1;
    return nodes[x].constValue.isZero() ? 0 : 1;
  };
  if (constVal(a) == 1) return b;
  if (constVal(b) == 1) return a;
  if (constVal(a) == 0 || constVal(b) == 0) return zero();
  return addBinary(rtl::BinOp::And, a, b);
}

NetId Netlist::orNet(NetId a, NetId b) {
  auto constVal = [&](NetId x) -> int {
    if (nodes[x].kind != NodeKind::Const) return -1;
    return nodes[x].constValue.isZero() ? 0 : 1;
  };
  if (constVal(a) == 0) return b;
  if (constVal(b) == 0) return a;
  if (constVal(a) == 1 || constVal(b) == 1) return one();
  return addBinary(rtl::BinOp::Or, a, b);
}

NetId Netlist::notNet(NetId a) {
  if (nodes[a].kind == NodeKind::Const)
    return nodes[a].constValue.isZero() ? one() : zero();
  return addUnary(rtl::UnOp::BitNot, a);
}

NetId Netlist::withSlice(NetId base, unsigned hi, unsigned lo, NetId part) {
  unsigned w = nodes[base].width;
  std::vector<NetId> parts;
  if (hi + 1 < w) parts.push_back(addSlice(base, w - 1, hi + 1));
  parts.push_back(part);
  if (lo > 0) parts.push_back(addSlice(base, lo - 1, 0));
  if (parts.size() == 1) return parts[0];
  return addConcat(std::move(parts));
}

void Netlist::checkLevelized() const {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (NetId in : nodes[i].ins)
      if (nodes[i].kind != NodeKind::Reg && in >= static_cast<NetId>(i))
        throw IsdlError(cat("netlist not in evaluation order: node ", i,
                            " reads node ", in));
}

void Netlist::rewire(const std::vector<NetId>& to) {
  auto fix = [&](NetId& id) {
    if (id != kNoNet) id = to[id];
  };
  for (auto& node : nodes)
    for (NetId& in : node.ins) fix(in);
  for (auto& m : memories)
    for (auto& p : m.writePorts) {
      fix(p.enable);
      fix(p.addr);
      fix(p.data);
    }
  for (auto& out : outputs) fix(out.net);
}

std::vector<NetId> Netlist::sweepDead() {
  const std::size_t n = nodes.size();
  std::vector<bool> live(n, false);
  std::vector<NetId> stack;
  auto mark = [&](NetId id) {
    if (id != kNoNet && !live[id]) {
      live[id] = true;
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
    for (NetId in : nodes[id].ins) mark(in);
  }

  // Number the survivors in DFS post-order over combinational reads, roots
  // in index order: a node already after its inputs keeps its place.
  std::vector<NetId> remap(n, kNoNet);
  std::vector<bool> open(n, false);
  std::vector<std::pair<NetId, std::size_t>> path;  // node, next input
  NetId numbered = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (!live[root] || remap[root] != kNoNet) continue;
    path.push_back({static_cast<NetId>(root), 0});
    open[root] = true;
    while (!path.empty()) {
      auto& [id, next] = path.back();
      const Node& node = nodes[id];
      if (node.kind != NodeKind::Reg && next < node.ins.size()) {
        NetId in = node.ins[next++];
        if (in == kNoNet || remap[in] != kNoNet) continue;
        if (open[in])
          throw IsdlError("combinational cycle in generated netlist");
        open[in] = true;
        path.push_back({in, 0});
        continue;
      }
      remap[id] = numbered++;
      path.pop_back();
    }
  }
  std::vector<Node> kept(static_cast<std::size_t>(numbered));
  for (std::size_t i = 0; i < n; ++i)
    if (remap[i] != kNoNet) kept[remap[i]] = std::move(nodes[i]);
  nodes = std::move(kept);
  rewire(remap);
  // Re-index the survivors. Rewiring may have left two of them alike; the
  // first-born keeps answering for the shape.
  index_.clear();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!mergeable(nodes[i])) continue;
    const std::size_t h = shapeHash(nodes[i]);
    if (find(nodes[i], h) == kNoNet) index_.emplace(h, static_cast<NetId>(i));
  }
  return remap;
}

std::size_t Netlist::countNodes(NodeKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(nodes.begin(), nodes.end(),
                    [&](const Node& n) { return n.kind == kind; }));
}

}  // namespace isdl::hw
