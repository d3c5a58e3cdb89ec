// Weakly connected components in one concurrent union-find pass over the
// stored edges of whatever layout the RunConfig names (ScanStoredEdges in
// src/engine/dispatch.h). The label array is the forest: label[v] is v's
// parent and a root is its own. Each stored edge unites its two endpoints'
// trees, linking the larger root under the smaller with a compare-and-swap;
// finds halve their paths. Every parent id is therefore at most its child's
// and every root is its component's minimum id, so a last pass that points
// each vertex at its root yields the same labels in any schedule and at any
// pool width.
//
// The paper propagates labels until none moves (section 8), and on
// adjacency lists that needs the input symmetrized. A union only needs each
// edge once, in either direction, so no layout needs symmetrized input: the
// adjacency layouts walk the lists the run prepared (out-lists, or in-lists
// under pull), and a symmetrized input yields the same labels.
#ifndef SRC_ALGOS_WCC_H_
#define SRC_ALGOS_WCC_H_

#include <vector>

#include "src/algos/common.h"

namespace egraph {

struct WccResult {
  // label[v] = smallest vertex id in v's weakly connected component.
  std::vector<VertexId> label;
  // One round: every stored edge scanned, and as many relaxed as the pass
  // linked trees (vertices minus components).
  AlgoStats stats;
};

WccResult RunWcc(GraphHandle& handle, const RunConfig& config,
                 ExecutionContext& ctx = ExecutionContext::Default());

}  // namespace egraph

#endif  // SRC_ALGOS_WCC_H_
