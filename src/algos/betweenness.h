// Betweenness centrality (Brandes) over unweighted directed graphs, the
// standard frontier-parallel formulation (as in Ligra's BC): a forward BFS
// on the shared round loop accumulates shortest-path counts per level; a
// backward sweep over the recorded levels accumulates dependencies. Exact
// for the given sources; pass a sample of sources for the usual
// approximation.
#ifndef SRC_ALGOS_BETWEENNESS_H_
#define SRC_ALGOS_BETWEENNESS_H_

#include <span>
#include <vector>

#include "src/algos/common.h"

namespace egraph {

struct BcResult {
  // Accumulated dependency scores; for the full source set this is the
  // (directed, unnormalized) betweenness centrality.
  std::vector<double> centrality;
  AlgoStats stats;
};

// Runs Brandes from each source in turn (each source's BFS and back-sweep
// are internally parallel). Runs on adjacency lists: the forward phase
// honours config's direction and sync, and the backward phase walks the
// out-CSR. stats counts the forward rounds of all sources.
BcResult RunBetweenness(GraphHandle& handle, std::span<const VertexId> sources,
                        const RunConfig& config,
                        ExecutionContext& ctx = ExecutionContext::Default());

// Sequential reference (textbook Brandes) for tests.
std::vector<double> RefBetweenness(const EdgeList& graph,
                                   std::span<const VertexId> sources);

}  // namespace egraph

#endif  // SRC_ALGOS_BETWEENNESS_H_
