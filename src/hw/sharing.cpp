#include "hw/sharing.h"

#include <algorithm>
#include <compare>
#include <map>
#include <numeric>
#include <set>

#include "support/strings.h"
#include "synth/mapper.h"

namespace isdl::hw {

namespace {

using rtl::BinOp;

/// Functional-unit class of a tagged operator node (rule R2): nodes share
/// only within a class. Datapath tagging decides which operators are
/// shareable; the class reads Sub as Add, so adds and subtracts meet in one
/// class (the paper's subset case). Classes order as rtl::BinOp, then IToF,
/// then FToI.
struct UnitClass {
  NodeKind kind;
  BinOp op;
  unsigned width;
  unsigned rhsWidth;  ///< second operand's width (shifters: the amount)

  auto operator<=>(const UnitClass&) const = default;
};

UnitClass classOf(const Netlist& nl, NetId id) {
  const Node& n = nl.nodes[id];
  if (n.kind != NodeKind::Binary) return {n.kind, BinOp::Add, n.width, 0};
  return {n.kind, n.binOp == BinOp::Sub ? BinOp::Add : n.binOp, n.width,
          nl.widthOf(nl.ins(id)[1])};
}

/// Bron–Kerbosch with pivoting: appends to `out` every maximal clique that
/// extends `r` with vertices of `p` and none of `x`.
void bronKerbosch(const std::vector<std::vector<bool>>& adj,
                  std::vector<unsigned>& r, std::vector<unsigned> p,
                  std::vector<unsigned> x,
                  std::vector<std::vector<unsigned>>& out) {
  if (p.empty() && x.empty()) {
    out.push_back(r);
    return;
  }
  // Pivot: the first vertex of P ∪ X with the most neighbours in P.
  unsigned pivot = 0;
  std::ptrdiff_t bestCount = -1;
  for (const auto* set : {&p, &x}) {
    for (unsigned u : *set) {
      std::ptrdiff_t count = 0;
      for (unsigned v : p)
        if (adj[u][v]) ++count;
      if (count > bestCount) {
        bestCount = count;
        pivot = u;
      }
    }
  }
  std::vector<unsigned> candidates;
  for (unsigned v : p)
    if (!adj[pivot][v]) candidates.push_back(v);
  for (unsigned v : candidates) {
    std::vector<unsigned> p2, x2;
    for (unsigned u : p)
      if (adj[v][u]) p2.push_back(u);
    for (unsigned u : x)
      if (adj[v][u]) x2.push_back(u);
    r.push_back(v);
    bronKerbosch(adj, r, std::move(p2), std::move(x2), out);
    r.pop_back();
    p.erase(std::find(p.begin(), p.end(), v));
    x.push_back(v);
  }
}

/// `net` as its consumers will read it: a merged member's entry in `unitOf`
/// names its shared unit (which hash-consing may have found among the
/// members, hence the chain); nets past the map's end are newer than every
/// member and map to themselves.
NetId unitOfNet(const std::vector<NetId>& unitOf, NetId net) {
  while (net != kNoNet && std::size_t(net) < unitOf.size() &&
         unitOf[net] != net)
    net = unitOf[net];
  return net;
}

/// The combinational fan-in cone of `start` (including itself) once every
/// merged member reads through `unitOf`: transitive closure over node inputs
/// with Input/Const/Reg outputs as boundaries — exactly the edges
/// Netlist::sweepDead() orders and checkLevelized() checks.
std::vector<bool> faninCone(const Netlist& nl,
                            const std::vector<NetId>& unitOf, NetId start) {
  std::vector<bool> seen(nl.nodes.size(), false);
  std::vector<NetId> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    const NetId id = stack.back();
    const NodeKind kind = nl.nodes[id].kind;
    stack.pop_back();
    if (kind == NodeKind::Input || kind == NodeKind::Const ||
        kind == NodeKind::Reg)
      continue;
    for (NetId in : nl.ins(id)) {
      in = unitOfNet(unitOf, in);
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
  std::vector<unsigned> r, p(adjacency.size());
  std::iota(p.begin(), p.end(), 0u);
  std::vector<std::vector<unsigned>> cliques;
  bronKerbosch(adjacency, r, std::move(p), {}, cliques);
  return cliques;
}

SharingReport shareResources(HwModel& model, const Machine& machine,
                             const SharingOptions& options) {
  SharingReport report;
  Netlist& nl = model.netlist;

  // ---- collect shareable nodes grouped by unit class ----------------------
  // Each member is priced as the silicon compiler maps it on its own.
  struct Member {
    NetId net;
    OpTag tag;
    double area;
  };
  std::map<UnitClass, std::vector<Member>> classes;
  for (const auto& [net, tag] : model.operatorTags)
    classes[classOf(nl, net)].push_back(
        {net, tag, synth::costOfNode(nl, net).area});

  // Each merged member's shared unit; every other net maps to itself. The
  // netlist is rewired once, at the end: until then cones, operand counts
  // and mux operands read node inputs through this map.
  std::vector<NetId> unitOf(nl.nodes.size());
  std::iota(unitOf.begin(), unitOf.end(), 0);
  auto input = [&](NetId id, std::size_t i) {
    return unitOfNet(unitOf, nl.ins(id)[i]);
  };

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

  const double muxCellArea = synth::defaultLibrary().mux21.area;
  for (auto& [cls, members] : classes) {
    report.shareableNodes += members.size();
    if (members.size() < 2) {
      report.unitsAfter += members.size();
      continue;
    }
    const bool isAddSubClass =
        cls.kind == NodeKind::Binary && cls.op == BinOp::Add;
    const bool unaryClass = cls.kind != NodeKind::Binary;
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
    // levelized structurally, so it must stay acyclic. Merging extends
    // cones, so this is re-applied after every merge.
    std::vector<bool> assigned(n, false);
    auto pruneDependentPairs = [&] {
      std::vector<std::vector<bool>> cones(n);
      for (std::size_t i = 0; i < n; ++i)
        if (!assigned[i]) cones[i] = faninCone(nl, unitOf, members[i].net);
      for (std::size_t i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        for (std::size_t j = i + 1; j < n; ++j) {
          if (assigned[j] || !adj[i][j]) continue;
          if (cones[i][members[j].net] || cones[j][members[i].net])
            adj[i][j] = adj[j][i] = false;
        }
      }
    };
    pruneDependentPairs();

    // ---- maximal cliques + greedy, profitability-aware cover --------------
    // The paper notes the resource-sharing problem "can be solved using a
    // combinatorial optimization strategy" (§4.1): we only instantiate a
    // clique when the unit saved outweighs the operand muxes added. Mux cost
    // is computed on *distinct* operand nets — operations of one field
    // usually read the same hash-consed operand extracts, making their muxes
    // free.
    auto cliques = maximalCliques(adj);
    report.maximalCliques += cliques.size();

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
      // Merging redirects consumers, which can put one clique member into
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
        const NetId net = members[v].net;
        const Node& node = nl.nodes[net];
        naive += members[v].area;
        distinctA.insert(input(net, 0));
        if (nl.ins(net).size() > 1) distinctB.insert(input(net, 1));
        if (node.kind == NodeKind::Binary && node.binOp == BinOp::Sub)
          p.anySub = true;
        else
          anyAdd = true;
      }
      p.mixedAddSub = isAddSubClass && p.anySub && anyAdd;
      double unit = p.mixedAddSub ? synth::addSubCost(cls.width).area
                                  : members[p.take[0]].area;
      double muxArea =
          muxCellArea * cls.width *
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

      for (unsigned v : take) assigned[v] = true;
      ++report.cliquesUsed;
      ++report.unitsAfter;

      // ---- instantiate the shared unit -------------------------------------
      // Operand muxes keyed by each member's decode line; the first member
      // is the lowest-priority default (exactly one line is high whenever
      // the output is consumed).
      NetId aMux = kNoNet, bMux = kNoNet, subMux = kNoNet;
      for (std::size_t k = 0; k < take.size(); ++k) {
        const NetId net = members[take[k]].net;
        const Node& node = nl.nodes[net];
        NetId a = input(net, 0);
        NetId b = unaryClass ? kNoNet : input(net, 1);
        NetId sub = !unaryClass && node.binOp == BinOp::Sub ? nl.one()
                                                            : nl.zero();
        if (k == 0) {
          aMux = a;
          bMux = b;
          subMux = sub;
        } else {
          const OpTag& tag = members[take[k]].tag;
          NetId sel = model.decodeLines[tag.field][tag.op];
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
      const std::string name =
          cat(best.mixedAddSub ? "shared_addsub" : "shared_unit",
              report.cliquesUsed);
      if (best.mixedAddSub) {
        shared = nl.addAddSub(aMux, bMux, subMux, name);
      } else if (isAddSubClass) {
        // All members agree on add vs sub: a plain unit suffices.
        shared = nl.addBinary(best.anySub ? BinOp::Sub : BinOp::Add, aMux,
                              bMux, name);
      } else if (unaryClass) {
        shared = nl.addExt(first.kind, aMux, first.width, name);
      } else {
        shared = nl.addBinary(first.binOp, aMux, bMux, name);
      }
      shared = unitOfNet(unitOf, shared);
      for (unsigned v : take) unitOf[members[v].net] = shared;
      pruneDependentPairs();
    }
    for (std::size_t v = 0; v < n; ++v)
      if (!assigned[v]) ++report.unitsAfter;
  }

  // ---- redirect consumers of every member to its unit, once ----------------
  // Consumers born before a unit now read a later net; the sweep restores
  // evaluation order. R5 keeps every member out of its unit's fan-in (a
  // violation would surface there as a cycle).
  std::vector<NetId> to(nl.nodes.size());
  for (std::size_t i = 0; i < to.size(); ++i)
    to[i] = unitOfNet(unitOf, static_cast<NetId>(i));
  nl.rewire(to);

  // ---- sweep dead members and remap the model's net references --------------
  remapModel(model, nl.sweepDead());
  return report;
}

}  // namespace isdl::hw
