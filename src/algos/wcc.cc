#include "src/algos/wcc.h"

#include <atomic>

#include "src/algos/rounds.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

struct WccFunctor {
  VertexId* label;

  bool Update(VertexId src, VertexId dst, float /*weight*/) {
    // dst is exclusively owned; src's label may shrink concurrently, so read
    // it atomically (any stale value is still a member of the component).
    const VertexId src_label = AtomicLoad(&label[src]);
    if (src_label < label[dst]) {
      AtomicStore(&label[dst], src_label);
      return true;
    }
    return false;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float /*weight*/) {
    return AtomicMin(&label[dst], AtomicLoad(&label[src]));
  }

  bool Cond(VertexId /*dst*/) const { return true; }
};

}  // namespace

WccResult RunWcc(GraphHandle& handle, const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  WccResult result;
  const VertexId n = handle.num_vertices();
  result.label.resize(n);
  Timer total;
  obs::TraceSession trace(result.stats.trace, "wcc", config.layout, config.direction,
                          config.sync);
  VertexMap(n, [&](VertexId v) { result.label[v] = v; });

  if (IsVertexCentric(config.layout)) {
    // Frontier-driven label propagation over the (symmetrized) adjacency
    // lists: only re-labeled vertices propagate next round.
    WccFunctor func{result.label.data()};
    RunRounds(handle, Frontier::All(n), func, config, ctx, trace);
  } else {
    // Edge array / grid: full scans updating *both* endpoints per stored
    // edge (no symmetrization needed), iterated to fixpoint. Both endpoints
    // move, so every update is atomic whatever the configured sync.
    VertexId* label = result.label.data();
    std::atomic<bool> changed{true};
    auto relax = [label, &changed](VertexId a, VertexId b, float /*w*/) {
      const VertexId la = AtomicLoad(&label[a]);
      const VertexId lb = AtomicLoad(&label[b]);
      if (la < lb) {
        if (AtomicMin(&label[b], la)) {
          changed.store(true, std::memory_order_relaxed);
        }
      } else if (lb < la) {
        if (AtomicMin(&label[a], lb)) {
          changed.store(true, std::memory_order_relaxed);
        }
      }
    };
    while (changed.exchange(false, std::memory_order_relaxed)) {
      trace.BeginIteration(n, /*frontier_sparse=*/false);
      const int64_t scanned = ScanStoredEdges(handle, config, relax);
      trace.EndIteration(config.direction, scanned, /*edges_relaxed=*/0);
    }
  }
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
