#include "src/algos/pagerank.h"

#include "src/engine/dispatch.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {

PagerankResult RunPagerank(GraphHandle& handle, const PagerankOptions& options,
                           const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  PagerankResult result;
  const VertexId n = handle.num_vertices();
  if (n == 0) {
    return result;
  }

  Timer total;
  obs::TraceSession trace(result.stats.trace, "pagerank", config.layout, config.direction,
                          config.sync);
  // Out-degrees are part of the algorithm phase: the edge-array layout has
  // no pre-processing, so everything it needs beyond the raw input counts
  // as computation (consistent with the paper's 0.0s pre-processing rows).
  const std::vector<uint32_t> degree = OutDegrees(handle, config.layout);

  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  std::vector<float> contrib(n, 0.0f);
  std::vector<float> next(n, 0.0f);
  const float base_teleport = (1.0f - options.damping) / static_cast<float>(n);

  for (int iter = 0; iter < options.iterations; ++iter) {
    trace.BeginIteration(n, /*frontier_sparse=*/false);
    // Per-vertex contribution; dangling vertices spread their mass uniformly.
    // The reduction's fixed grouping keeps the dangling mass — and therefore
    // the whole rank sequence — bit-identical across pool sizes, so results
    // can be cross-checked exactly between contexts of different widths.
    double dangling = ParallelReduceSum<double>(0, static_cast<int64_t>(n), [&](int64_t v) {
      if (degree[static_cast<size_t>(v)] == 0) {
        return static_cast<double>(rank[static_cast<size_t>(v)]);
      }
      contrib[static_cast<size_t>(v)] = rank[static_cast<size_t>(v)] /
                                        static_cast<float>(degree[static_cast<size_t>(v)]);
      return 0.0;
    });
    VertexMap(n, [&](VertexId v) {
      if (degree[v] == 0) {
        contrib[v] = 0.0f;
      }
      next[v] = 0.0f;
    });

    // next[dst] += contributions of dst's in-neighbors. Pull folds each
    // destination's in-edges in list order (sorted plain and compressed
    // lists agree, so their ranks match bit for bit).
    const int64_t scanned = Scan(
        handle, config, [c = contrib.data()](VertexId src, float /*w*/) { return c[src]; },
        next.data());

    const float teleport = base_teleport + options.damping *
                                               static_cast<float>(dangling) /
                                               static_cast<float>(n);
    VertexMap(n, [&](VertexId v) { next[v] = teleport + options.damping * next[v]; });
    rank.swap(next);
    trace.EndIteration(config.direction, scanned, /*edges_relaxed=*/0);
  }

  result.rank = std::move(rank);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
