// Frontier rounds shared by the traversal algorithms (BFS, SSSP, WCC): one
// engine EdgeMap per round until the frontier empties, each round recorded
// in the run's stats and trace. The algorithms differ only in their functor
// and starting frontier.
#ifndef SRC_ALGOS_ROUNDS_H_
#define SRC_ALGOS_ROUNDS_H_

#include <utility>

#include "src/algos/common.h"
#include "src/engine/dispatch.h"
#include "src/util/timer.h"

namespace egraph {

template <typename F>
void RunRounds(GraphHandle& handle, Frontier frontier, F& func, const RunConfig& config,
               ExecutionContext& ctx, obs::TraceSession& trace, AlgoStats& stats) {
  while (!frontier.Empty()) {
    Timer iteration;
    stats.frontier_sizes.push_back(frontier.Count());
    trace.BeginIteration(frontier.Count(), frontier.has_sparse());
    Direction used = config.direction;
    Frontier next = EdgeMap(handle, frontier, func, config, &ctx.edge_map_scratch(), &used);
    frontier = std::move(next);
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
