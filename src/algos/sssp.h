// Single-source shortest paths by bucketed relaxation over the engine's
// EdgeMap (Delta-stepping in GBBS's lazy-bucket form). Each round relaxes the
// out-edges of the lowest distance bucket with work left, so a vertex is
// relaxed about once on a road network instead of once per improvement; a
// vertex that improves within its own bucket is relaxed again before the
// next bucket opens. The bucket width is derived, never set: the mean edge
// weight times the pool width, or one bucket (frontier Bellman-Ford) where a
// round costs O(|E|) whatever its frontier (the edge array, the grid, pure
// pull) and on graphs with negative weights. Distances are the least
// fixpoint of the float relaxations, so they are bit-identical at every
// width and pool width. Unweighted graphs relax with weight 1 (hop
// distance).
#ifndef SRC_ALGOS_SSSP_H_
#define SRC_ALGOS_SSSP_H_

#include <vector>

#include "src/algos/common.h"

namespace egraph {

struct SsspResult {
  // dist[v] = length of the shortest path source -> v; +inf if unreachable.
  std::vector<float> dist;
  AlgoStats stats;
};

SsspResult RunSssp(GraphHandle& handle, VertexId source, const RunConfig& config,
                   ExecutionContext& ctx = ExecutionContext::Default());

}  // namespace egraph

#endif  // SRC_ALGOS_SSSP_H_
