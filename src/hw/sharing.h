// Resource sharing (paper §4.1, Figure 5).
//
// ISDL operation scopes are independent, so a naive lowering gives every
// operation its own functional units (§4.1.1's "naive scheme"). This pass
// recovers the sharing a human designer would build in:
//
//   1. label every shareable RTL operator node,
//   2. fill the n×n compatibility matrix A (A[i][j] = 1 iff i and j can
//      share a unit) using the paper's four rules plus constraint-derived
//      exclusivity,
//   3. enumerate maximal cliques of A (Bron–Kerbosch with pivoting),
//   4. cover the nodes greedily with the largest cliques, and
//   5. rewrite the netlist: one shared unit per clique, operand muxes
//      selected by the member operations' decode lines, dead units swept.
//
// Rules implemented (§4.1.2):
//   R1  nodes of the same RTL statement — and, more generally, of the same
//       operation — evaluate in parallel: not shareable.
//   R2  nodes must perform compatible tasks of equal width; add/sub pairs
//       are the paper's "subset" case and merge into an AddSub unit.
//   R3  nodes of operations in the same field are mutually exclusive:
//       shareable.
//   R4  nodes of operations in different fields are not shareable, unless a
//       two-operation constraint forbids their co-occurrence.

#ifndef ISDL_HW_SHARING_H
#define ISDL_HW_SHARING_H

#include "hw/datapath.h"

namespace isdl::hw {

struct SharingOptions {
  /// Apply rule R4's constraint refinement (the ablation bench disables it).
  bool useConstraints = true;
};

struct SharingReport {
  std::size_t shareableNodes = 0;  ///< operator nodes considered (the
                                   ///< naive scheme's unit count)
  std::size_t unitsAfter = 0;      ///< shared units + singletons
  std::size_t cliquesUsed = 0;     ///< multi-member cliques instantiated
  std::size_t maximalCliques = 0;  ///< total maximal cliques enumerated
  std::size_t muxesAdded = 0;
};

/// Rewrites `model` in place; returns the report. Safe to run once per model.
SharingReport shareResources(HwModel& model, const Machine& machine,
                             const SharingOptions& options = {});

/// Enumerate all maximal cliques of an undirected graph given as an
/// adjacency matrix (Bron–Kerbosch with pivoting). Exposed for tests.
std::vector<std::vector<unsigned>> maximalCliques(
    const std::vector<std::vector<bool>>& adjacency);

}  // namespace isdl::hw

#endif  // ISDL_HW_SHARING_H
