#include "hw/sharing.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "support/strings.h"

namespace isdl::hw {

namespace {

using rtl::BinOp;

/// Functional-unit class of a shareable node (rule R2). Nodes share only
/// within a class; Add and Sub collapse into one "addsub" class (the
/// paper's subset case).
struct UnitClass {
  enum Kind {
    AddSub, Mul, UDiv, SDiv, URem, SRem, Shl, LShr, AShr,
    FAdd, FSub, FMul, FDiv, IToF, FToI, None,
  } kind = None;
  unsigned width = 0;
  unsigned rhsWidth = 0;  ///< shifters: shift-amount width

  bool operator<(const UnitClass& o) const {
    return std::tie(kind, width, rhsWidth) <
           std::tie(o.kind, o.width, o.rhsWidth);
  }
  bool operator==(const UnitClass& o) const = default;
};

UnitClass classify(const Netlist& nl, const Node& n) {
  UnitClass c;
  c.width = n.width;
  if (n.kind == NodeKind::IToF) {
    c.kind = UnitClass::IToF;
    return c;
  }
  if (n.kind == NodeKind::FToI) {
    c.kind = UnitClass::FToI;
    return c;
  }
  if (n.kind != NodeKind::Binary && n.kind != NodeKind::AddSub) return c;
  c.rhsWidth = nl.nodes[n.ins[1]].width;
  if (n.kind == NodeKind::AddSub) {
    c.kind = UnitClass::AddSub;
    return c;
  }
  switch (n.binOp) {
    case BinOp::Add: case BinOp::Sub: c.kind = UnitClass::AddSub; break;
    case BinOp::Mul: c.kind = UnitClass::Mul; break;
    case BinOp::UDiv: c.kind = UnitClass::UDiv; break;
    case BinOp::SDiv: c.kind = UnitClass::SDiv; break;
    case BinOp::URem: c.kind = UnitClass::URem; break;
    case BinOp::SRem: c.kind = UnitClass::SRem; break;
    case BinOp::Shl: c.kind = UnitClass::Shl; break;
    case BinOp::LShr: c.kind = UnitClass::LShr; break;
    case BinOp::AShr: c.kind = UnitClass::AShr; break;
    case BinOp::FAdd: c.kind = UnitClass::FAdd; break;
    case BinOp::FSub: c.kind = UnitClass::FSub; break;
    case BinOp::FMul: c.kind = UnitClass::FMul; break;
    case BinOp::FDiv: c.kind = UnitClass::FDiv; break;
    default: break;
  }
  return c;
}

class BronKerbosch {
 public:
  explicit BronKerbosch(const std::vector<std::vector<bool>>& adj)
      : adj_(adj), n_(adj.size()) {}

  std::vector<std::vector<unsigned>> run() {
    std::vector<unsigned> r, p, x;
    for (unsigned v = 0; v < n_; ++v) p.push_back(v);
    recurse(r, p, x);
    return std::move(cliques_);
  }

 private:
  const std::vector<std::vector<bool>>& adj_;
  std::size_t n_;
  std::vector<std::vector<unsigned>> cliques_;

  void recurse(std::vector<unsigned>& r, std::vector<unsigned> p,
               std::vector<unsigned> x) {
    if (p.empty() && x.empty()) {
      cliques_.push_back(r);
      return;
    }
    // Pivot: vertex of P ∪ X with the most neighbours in P.
    unsigned pivot = 0;
    std::size_t bestCount = 0;
    bool havePivot = false;
    for (const auto* set : {&p, &x}) {
      for (unsigned u : *set) {
        std::size_t count = 0;
        for (unsigned v : p)
          if (adj_[u][v]) ++count;
        if (!havePivot || count > bestCount) {
          havePivot = true;
          bestCount = count;
          pivot = u;
        }
      }
    }
    std::vector<unsigned> candidates;
    for (unsigned v : p)
      if (!adj_[pivot][v]) candidates.push_back(v);
    for (unsigned v : candidates) {
      std::vector<unsigned> p2, x2;
      for (unsigned u : p)
        if (adj_[v][u]) p2.push_back(u);
      for (unsigned u : x)
        if (adj_[v][u]) x2.push_back(u);
      r.push_back(v);
      recurse(r, std::move(p2), std::move(x2));
      r.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }
};

/// The combinational fan-in cone of `start` (including itself): transitive
/// closure over node inputs with Input/Const/Reg outputs as boundaries —
/// exactly the edges Netlist::sweepDead() orders and checkLevelized()
/// checks.
std::vector<bool> faninCone(const Netlist& nl, NetId start) {
  std::vector<bool> seen(nl.nodes.size(), false);
  std::vector<NetId> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    const Node& node = nl.nodes[stack.back()];
    stack.pop_back();
    if (node.kind == NodeKind::Input || node.kind == NodeKind::Const ||
        node.kind == NodeKind::Reg)
      continue;
    for (NetId in : node.ins) {
      if (in == kNoNet || seen[in]) continue;
      seen[in] = true;
      stack.push_back(in);
    }
  }
  return seen;
}

}  // namespace

std::vector<std::vector<unsigned>> maximalCliques(
    const std::vector<std::vector<bool>>& adjacency) {
  return BronKerbosch(adjacency).run();
}

SharingReport shareResources(HwModel& model, const Machine& machine,
                             const SharingOptions& options) {
  SharingReport report;
  Netlist& nl = model.netlist;

  // ---- collect shareable nodes grouped by unit class ----------------------
  struct Member {
    NetId net;
    OpTag tag;
  };
  std::map<UnitClass, std::vector<Member>> classes;
  for (const auto& [net, tag] : model.operatorTags) {
    UnitClass c = classify(nl, nl.nodes[net]);
    if (c.kind == UnitClass::None) continue;
    classes[c].push_back({net, tag});
  }

  // Pairwise exclusivity from two-operation constraints (rule R4).
  auto constraintExcludes = [&](const OpTag& a, const OpTag& b) {
    if (!options.useConstraints) return false;
    for (const auto& con : machine.constraints) {
      if (con.ops.size() != 2) continue;
      OpRef ra{a.field, a.op}, rb{b.field, b.op};
      if ((con.ops[0] == ra && con.ops[1] == rb) ||
          (con.ops[0] == rb && con.ops[1] == ra))
        return true;
    }
    return false;
  };

  for (auto& [cls, members] : classes) {
    report.shareableNodes += members.size();
    if (members.size() < 2) {
      report.unitsAfter += members.size();
      continue;
    }
    // ---- compatibility matrix (Figure 5) ----------------------------------
    const std::size_t n = members.size();
    std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const OpTag& a = members[i].tag;
        const OpTag& b = members[j].tag;
        bool ok;
        if (a.field == b.field && a.op == b.op) {
          ok = false;  // R1: nodes of the same operation run in parallel
        } else if (a.field == b.field) {
          ok = true;   // R3: same field -> mutually exclusive operations
        } else {
          ok = constraintExcludes(a, b);  // R4 + constraint refinement
        }
        adj[i][j] = adj[j][i] = ok;
      }
    }

    // R5 (structural): two nodes may share a unit only when neither lies in
    // the other's combinational fan-in — hash-consing lets a node tagged for
    // one operation feed another operation's expression, and merging such a
    // pair would route the shared unit's output back into its own operand
    // mux.
    // The decode lines make that loop false dynamically, but the netlist is
    // levelized structurally, so it must stay acyclic. Rewiring extends
    // cones, so this is re-applied after every merge.
    auto pruneDependentPairs = [&](std::vector<bool>& assignedSet) {
      std::vector<std::vector<bool>> cones(n);
      for (std::size_t i = 0; i < n; ++i)
        if (!assignedSet[i]) cones[i] = faninCone(nl, members[i].net);
      for (std::size_t i = 0; i < n; ++i) {
        if (assignedSet[i]) continue;
        for (std::size_t j = i + 1; j < n; ++j) {
          if (assignedSet[j] || !adj[i][j]) continue;
          if (cones[i][members[j].net] || cones[j][members[i].net])
            adj[i][j] = adj[j][i] = false;
        }
      }
    };
    std::vector<bool> noneAssigned(n, false);
    pruneDependentPairs(noneAssigned);

    // ---- maximal cliques + greedy, profitability-aware cover --------------
    // The paper notes the resource-sharing problem "can be solved using a
    // combinatorial optimization strategy" (§4.1): we only instantiate a
    // clique when the unit saved outweighs the operand muxes added. Mux cost
    // is computed on *distinct* operand nets — operations of one field
    // usually read the same hash-consed operand extracts, making their muxes
    // free.
    auto standaloneArea = [&](const Node& node) {
      double w = node.width;
      if (node.kind == NodeKind::AddSub) return 11.0 * w;
      if (node.kind == NodeKind::IToF || node.kind == NodeKind::FToI)
        return node.width > 32 ? 7200.0 : 2400.0;
      switch (node.binOp) {
        case BinOp::Add: case BinOp::Sub: return 8.0 * w;
        case BinOp::Mul: return 7.2 * w * w;
        case BinOp::UDiv: case BinOp::SDiv:
        case BinOp::URem: case BinOp::SRem: return 11.0 * w * w;
        case BinOp::Shl: case BinOp::LShr: case BinOp::AShr:
          return 3.0 * w * std::max(1.0, std::ceil(std::log2(w)));
        case BinOp::FAdd: case BinOp::FSub: return w > 32 ? 12600.0 : 4200.0;
        case BinOp::FMul: return w > 32 ? 33000.0 : 11000.0;
        case BinOp::FDiv: return w > 32 ? 42000.0 : 14000.0;
        default: return 2.0 * w;
      }
    };

    auto cliques = maximalCliques(adj);
    report.maximalCliques += cliques.size();
    std::vector<bool> assigned(n, false);

    struct Pick {
      std::vector<unsigned> take;
      double profit = 0;
      bool mixedAddSub = false;
      bool anySub = false;
    };
    // Profit of sharing the unassigned members of one clique: the naive
    // scheme's summed area versus one unit plus operand muxes on *distinct*
    // input nets.
    auto evalClique = [&](const std::vector<unsigned>& clique) {
      Pick p;
      // Merging rewires consumers, which can put one clique member into
      // another's fan-in cone after the fact; the pruned adjacency tracks
      // that, so re-filter the clique against it (bits only ever clear, so
      // any subset taken here is still a clique).
      for (unsigned v : clique) {
        if (assigned[v]) continue;
        bool compatible = true;
        for (unsigned u : p.take)
          if (!adj[v][u]) {
            compatible = false;
            break;
          }
        if (compatible) p.take.push_back(v);
      }
      if (p.take.size() < 2) {
        p.take.clear();
        return p;
      }
      double naive = 0;
      std::set<NetId> distinctA, distinctB;
      bool anyAdd = false;
      for (unsigned v : p.take) {
        const Node& node = nl.nodes[members[v].net];
        naive += standaloneArea(node);
        distinctA.insert(node.ins[0]);
        if (node.ins.size() > 1) distinctB.insert(node.ins[1]);
        if (node.kind == NodeKind::AddSub)
          p.anySub = anyAdd = true;
        else if (node.kind == NodeKind::Binary && node.binOp == BinOp::Sub)
          p.anySub = true;
        else
          anyAdd = true;
      }
      const Node& proto = nl.nodes[members[p.take[0]].net];
      p.mixedAddSub = cls.kind == UnitClass::AddSub && p.anySub && anyAdd;
      double unit =
          p.mixedAddSub ? 11.0 * proto.width : standaloneArea(proto);
      double muxArea =
          3.0 * proto.width *
          (double(distinctA.size() - 1) +
           (distinctB.empty() ? 0 : double(distinctB.size() - 1)));
      p.profit = naive - (unit + muxArea);
      return p;
    };

    // Greedy cover by best profit: repeatedly instantiate the most
    // profitable remaining clique (the paper's "combinatorial optimization
    // strategy", §4.1).
    for (;;) {
      Pick best;
      for (const auto& clique : cliques) {
        Pick p = evalClique(clique);
        if (!p.take.empty() && p.profit > best.profit) best = std::move(p);
      }
      if (best.take.empty() || best.profit <= 0) break;
      const std::vector<unsigned>& take = best.take;
      const bool mixedAddSub = best.mixedAddSub;
      const bool anySub = best.anySub;

      for (unsigned v : take) assigned[v] = true;
      ++report.cliquesUsed;
      ++report.unitsAfter;

      // ---- instantiate the shared unit -------------------------------------
      // Operand muxes keyed by each member's decode line; the first member
      // is the lowest-priority default (exactly one line is high whenever
      // the output is consumed).
      auto memberSel = [&](unsigned v) {
        const OpTag& tag = members[v].tag;
        return model.decodeLines[tag.field][tag.op];
      };
      NetId aMux = kNoNet, bMux = kNoNet, subMux = kNoNet;
      const bool isAddSubClass = cls.kind == UnitClass::AddSub;
      const bool unaryClass =
          cls.kind == UnitClass::IToF || cls.kind == UnitClass::FToI;
      for (std::size_t k = 0; k < take.size(); ++k) {
        const Node& node = nl.nodes[members[take[k]].net];
        NetId a = node.ins[0];
        NetId b = unaryClass ? kNoNet : node.ins[1];
        NetId sub;
        if (node.kind == NodeKind::AddSub) {
          sub = node.ins[2];
        } else if (!unaryClass && node.binOp == BinOp::Sub) {
          sub = nl.one();
        } else {
          sub = nl.zero();
        }
        if (k == 0) {
          aMux = a;
          bMux = b;
          subMux = sub;
        } else {
          NetId sel = memberSel(take[k]);
          aMux = nl.addMux(sel, a, aMux);
          ++report.muxesAdded;
          if (!unaryClass) {
            bMux = nl.addMux(sel, b, bMux);
            ++report.muxesAdded;
          }
          if (isAddSubClass) {
            subMux = nl.addMux(sel, sub, subMux);
            ++report.muxesAdded;
          }
        }
      }

      NetId shared;
      const Node& first = nl.nodes[members[take[0]].net];
      if (isAddSubClass && mixedAddSub) {
        shared = nl.addAddSub(aMux, bMux, subMux,
                              cat("shared_addsub", report.cliquesUsed));
      } else if (isAddSubClass) {
        // All members agree on add vs sub: a plain unit suffices.
        shared = nl.addBinary(anySub ? BinOp::Sub : BinOp::Add, aMux, bMux,
                              cat("shared_unit", report.cliquesUsed));
      } else if (first.kind == NodeKind::IToF || first.kind == NodeKind::FToI) {
        shared = nl.addExt(first.kind, aMux, first.width,
                           cat("shared_unit", report.cliquesUsed));
      } else {
        shared = nl.addBinary(first.binOp, aMux, bMux,
                              cat("shared_unit", report.cliquesUsed));
      }

      // ---- rewire consumers of every member to the shared output -----------
      // Consumers born before the unit now read a later net; the sweep at
      // the end restores evaluation order. R5 keeps every member out of the
      // unit's fan-in (a violation would surface there as a cycle).
      std::vector<NetId> to(nl.nodes.size());
      std::iota(to.begin(), to.end(), 0);
      for (unsigned v : take) to[members[v].net] = shared;
      nl.rewire(to);
      pruneDependentPairs(assigned);
    }
    for (std::size_t v = 0; v < n; ++v)
      if (!assigned[v]) ++report.unitsAfter;
  }
  report.unitsBefore = report.shareableNodes;

  // ---- sweep dead members and remap the model's net references --------------
  remapModel(model, nl.sweepDead());
  return report;
}

}  // namespace isdl::hw
