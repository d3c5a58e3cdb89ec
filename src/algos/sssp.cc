#include "src/algos/sssp.h"

#include <limits>

#include "src/algos/rounds.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

struct SsspFunctor {
  float* dist;

  bool Update(VertexId src, VertexId dst, float weight) {
    // dst is exclusively owned by the caller, but src may be relaxed
    // concurrently elsewhere: read it atomically (monotone, so any stale
    // value is still a valid upper bound).
    const float candidate = AtomicLoad(&dist[src]) + weight;
    if (candidate < dist[dst]) {
      AtomicStore(&dist[dst], candidate);
      return true;
    }
    return false;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float weight) {
    return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + weight);
  }

  bool Cond(VertexId /*dst*/) const { return true; }
};

}  // namespace

SsspResult RunSssp(GraphHandle& handle, VertexId source, const RunConfig& config,
                   ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  SsspResult result;
  const VertexId n = handle.num_vertices();
  result.dist.assign(n, std::numeric_limits<float>::infinity());
  if (source >= n) {
    return result;
  }

  Timer total;
  obs::ScopedPhase phase(obs::Phase::kAlgorithm);
  obs::TraceSession trace(result.stats.trace, "sssp", config.layout, config.direction,
                          config.sync);
  result.dist[source] = 0.0f;
  // Every adjacency source carries real weights (compressed lists decode
  // them from the interleaved stream), so distances are true distances on
  // every layout, not hop counts.
  SsspFunctor func{result.dist.data()};
  RunRounds(handle, Frontier::Single(n, source), func, config, ctx, trace, result.stats);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
