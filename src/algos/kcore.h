// k-core decomposition by bucketed peeling (GBBS's k-core over lazy
// buckets): the core number of a vertex is the largest k such that the
// vertex survives in a subgraph where every vertex has degree >= k. Each
// vertex waits in bucket max(remaining degree, k); every round of the shared
// round loop peels the lowest bucket at core k and decrements its live
// neighbours, so each vertex is peeled once and the work is O(m + n). A
// frontier-driven workload with shrinking active sets — the same execution
// profile class as the paper's traversal algorithms, included as an
// extension exercise of the engine.
#ifndef SRC_ALGOS_KCORE_H_
#define SRC_ALGOS_KCORE_H_

#include <vector>

#include "src/algos/common.h"

namespace egraph {

struct KcoreResult {
  std::vector<uint32_t> core;  // core number per vertex
  uint32_t max_core = 0;
  AlgoStats stats;
};

// Computes core numbers over the *undirected* view of the handle's graph:
// the handle must hold a symmetrized edge list (EdgeList::MakeUndirected),
// like WCC on adjacency lists; set config.symmetric_input so pull and
// push-pull reuse the out-lists. Runs under any layout, direction and sync.
// Each round's trace frontier_size is the bucket it peeled, so they sum to n.
KcoreResult RunKcore(GraphHandle& handle, const RunConfig& config,
                     ExecutionContext& ctx = ExecutionContext::Default());

// Sequential reference (bucket peeling) for tests. Expects the same
// symmetrized input.
std::vector<uint32_t> RefKcore(const EdgeList& undirected);

}  // namespace egraph

#endif  // SRC_ALGOS_KCORE_H_
