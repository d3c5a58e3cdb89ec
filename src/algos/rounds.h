// Frontier rounds shared by every frontier traversal (BFS, SSSP, WCC,
// k-core, betweenness's forward phase and the analytics diameter sweep):
// one engine EdgeMap per round until the frontier empties, each round
// recorded in the run's trace with the edges its EdgeMap call counted. The
// algorithms differ only in their functor, their starting frontier and
// their selector, which turns a round's discoveries into the next round's
// frontier: BFS and WCC keep them all, SSSP keeps the lowest distance
// bucket with work left and k-core peels the lowest degree bucket
// (src/engine/buckets.h), betweenness and the diameter sweep keep them all
// and record each level on the way.
#ifndef SRC_ALGOS_ROUNDS_H_
#define SRC_ALGOS_ROUNDS_H_

#include <utility>

#include "src/algos/common.h"
#include "src/engine/dispatch.h"

namespace egraph {

// The identity selector: every vertex a round changed is active next round.
struct AllDiscovered {
  Frontier operator()(Frontier discovered) const { return discovered; }
};

template <typename F, typename Select = AllDiscovered>
void RunRounds(GraphHandle& handle, Frontier frontier, F& func, const RunConfig& config,
               ExecutionContext& ctx, obs::TraceSession& trace, Select select = {}) {
  while (!frontier.Empty()) {
    trace.BeginIteration(frontier.Count(), frontier.has_sparse());
    Direction used = config.direction;
    EdgeCounts counts;
    Frontier next =
        EdgeMap(handle, frontier, func, config, &ctx.edge_map_scratch(), &used, &counts);
    frontier = select(std::move(next));
    trace.EndIteration(used, counts.scanned, counts.relaxed);
  }
}

}  // namespace egraph

#endif  // SRC_ALGOS_ROUNDS_H_
