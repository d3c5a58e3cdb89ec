#include "src/algos/bfs.h"

#include "src/algos/rounds.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Claim-once functor: a vertex joins the tree when its parent slot is CASed
// from kInvalidVertex. Cond() keeps push from re-touching discovered
// vertices and gives pull its early exit.
struct BfsFunctor {
  VertexId* parent;

  bool Update(VertexId src, VertexId dst, float /*weight*/) {
    if (parent[dst] == kInvalidVertex) {
      AtomicStore(&parent[dst], src);
      return true;
    }
    return false;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float /*weight*/) {
    return AtomicCas(&parent[dst], kInvalidVertex, src);
  }

  bool Cond(VertexId dst) const { return AtomicLoad(&parent[dst]) == kInvalidVertex; }
};

}  // namespace

BfsResult RunBfs(GraphHandle& handle, VertexId source, const RunConfig& config,
                 ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  BfsResult result;
  const VertexId n = handle.num_vertices();
  result.parent.assign(n, kInvalidVertex);
  if (source >= n) {
    return result;
  }

  Timer total;
  obs::TraceSession trace(result.stats.trace, "bfs", config.layout, config.direction,
                          config.sync);
  result.parent[source] = source;
  BfsFunctor func{result.parent.data()};
  RunRounds(handle, Frontier::Single(n, source), func, config, ctx, trace);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
