#include "src/algos/spmv.h"

#include "src/engine/dispatch.h"
#include "src/util/timer.h"

namespace egraph {

SpmvResult RunSpmv(GraphHandle& handle, const std::vector<float>& x, const RunConfig& config,
                   ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  SpmvResult result;
  result.y.assign(handle.num_vertices(), 0.0f);

  Timer total;
  // y[dst] accumulates weight * x[src] over dst's in-edges.
  Scan(handle, config, [xv = x.data()](VertexId src, float w) { return w * xv[src]; },
       result.y.data());
  result.stats.iterations = 1;
  result.stats.algorithm_seconds = total.Seconds();
  result.stats.per_iteration_seconds.push_back(result.stats.algorithm_seconds);
  return result;
}

}  // namespace egraph
