#include "src/algos/spmv.h"

#include "src/engine/dispatch.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace egraph {

SpmvResult RunSpmv(GraphHandle& handle, const std::vector<float>& x, const RunConfig& config,
                   ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  SpmvResult result;
  result.y.assign(handle.num_vertices(), 0.0f);

  Timer total;
  obs::TraceSession trace(result.stats.trace, "spmv", config.layout, config.direction,
                          config.sync);
  trace.BeginIteration(handle.num_vertices(), /*frontier_sparse=*/false);
  // y[dst] accumulates weight * x[src] over dst's in-edges.
  const int64_t scanned = Scan(
      handle, config, [xv = x.data()](VertexId src, float w) { return w * xv[src]; },
      result.y.data());
  trace.EndIteration(config.direction, scanned, /*edges_relaxed=*/0);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
