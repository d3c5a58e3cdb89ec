// Frontier rounds shared by every frontier traversal (BFS, SSSP, WCC,
// k-core, betweenness's forward phase and the analytics diameter sweep):
// one engine EdgeMap per round until the frontier empties, each round
// recorded in the run's stats and trace. The algorithms differ only in their
// functor, their starting frontier and their selector, which turns a round's
// discoveries into the next round's frontier: BFS and WCC keep them all,
// SSSP keeps the lowest distance bucket with work left and k-core peels the
// lowest degree bucket (src/engine/buckets.h), betweenness and the diameter
// sweep keep them all and record each level on the way.
#ifndef SRC_ALGOS_ROUNDS_H_
#define SRC_ALGOS_ROUNDS_H_

#include <utility>

#include "src/algos/common.h"
#include "src/engine/dispatch.h"
#include "src/util/timer.h"

namespace egraph {

// The identity selector: every vertex a round changed is active next round.
struct AllDiscovered {
  Frontier operator()(Frontier discovered) const { return discovered; }
};

template <typename F, typename Select = AllDiscovered>
void RunRounds(GraphHandle& handle, Frontier frontier, F& func, const RunConfig& config,
               ExecutionContext& ctx, obs::TraceSession& trace, AlgoStats& stats,
               Select select = {}) {
  while (!frontier.Empty()) {
    Timer iteration;
    stats.frontier_sizes.push_back(frontier.Count());
    trace.BeginIteration(frontier.Count(), frontier.has_sparse());
    Direction used = config.direction;
    Frontier next = EdgeMap(handle, frontier, func, config, &ctx.edge_map_scratch(), &used);
    frontier = select(std::move(next));
    if (used != config.direction) {
      stats.used_pull.push_back(used == Direction::kPull);  // a push-pull decision
    }
    trace.EndIteration(used);
    stats.per_iteration_seconds.push_back(iteration.Seconds());
    ++stats.iterations;
  }
}

}  // namespace egraph

#endif  // SRC_ALGOS_ROUNDS_H_
