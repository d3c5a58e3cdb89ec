#include "src/algos/sssp.h"

#include <cmath>
#include <limits>

#include "src/algos/rounds.h"
#include "src/engine/buckets.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/parallel.h"
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

constexpr double kInfiniteWidth = std::numeric_limits<double>::infinity();

// floor(d / width), saturating below the 2^63 id limit of Buckets.
uint64_t DistanceBucket(float d, double width) {
  const double q = static_cast<double>(d) / width;
  if (q < 1.0) {
    return 0;
  }
  return q < 0x1p62 ? static_cast<uint64_t>(q) : uint64_t{1} << 62;
}

// Sum of the edge weights, and whether any is negative.
struct WeightTotal {
  double sum = 0.0;
  bool negative = false;

  WeightTotal& operator+=(const WeightTotal& other) {
    sum += other.sum;
    negative = negative || other.negative;
    return *this;
  }
};

// The bucket width RunSssp derives: the mean edge weight (1 when
// unweighted) times the pool width. One mean edge per bucket relaxes each
// vertex about once; every extra worker widens the band by one more, trading
// some repeat relaxations for fewer, fuller rounds. Infinite, i.e. one
// bucket, where a round costs O(|E|) whatever its frontier, and on negative
// weights, which can improve a vertex into a bucket already taken.
double BucketWidth(const GraphHandle& handle, const RunConfig& config) {
  if (!RoundCostFollowsFrontier(config)) {
    return kInfiniteWidth;
  }
  const std::vector<float>& weights = handle.edges().weights();
  double mean = 1.0;
  if (!weights.empty()) {
    const WeightTotal total = ParallelReduceSum<WeightTotal>(
        0, static_cast<int64_t>(weights.size()), [&weights](int64_t e) {
          const float w = weights[static_cast<size_t>(e)];
          return WeightTotal{w, w < 0.0f};
        });
    if (total.negative) {
      return kInfiniteWidth;
    }
    mean = total.sum > 0.0 ? total.sum / static_cast<double>(weights.size()) : 1.0;
  }
  return mean * ThreadPool::Current().num_threads();
}

}  // namespace

// RunSssp at an explicit bucket width; infinity keeps one bucket (frontier
// Bellman-Ford). Declared in no header: RunSssp derives the width, and only
// the width-sweep tests name one.
SsspResult RunSsspAtWidth(GraphHandle& handle, VertexId source, const RunConfig& config,
                          ExecutionContext& ctx, double width) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  SsspResult result;
  const VertexId n = handle.num_vertices();
  result.dist.assign(n, std::numeric_limits<float>::infinity());
  if (source >= n) {
    return result;
  }

  Timer total;
  obs::TraceSession trace(result.stats.trace, "sssp", config.layout, config.direction,
                          config.sync);
  float* dist = result.dist.data();
  dist[source] = 0.0f;
  // Every adjacency source carries real weights (compressed lists decode
  // them from the interleaved stream), so distances are true distances on
  // every layout, not hop counts.
  SsspFunctor func{dist};
  Frontier start = Frontier::Single(n, source);
  if (std::isinf(width)) {
    RunRounds(handle, std::move(start), func, config, ctx, trace);
  } else {
    Buckets buckets(n, [dist, width](VertexId v) { return DistanceBucket(dist[v], width); });
    RunRounds(handle, std::move(start), func, config, ctx, trace,
              [&buckets](Frontier improved) { return buckets.Next(std::move(improved)); });
  }
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

SsspResult RunSssp(GraphHandle& handle, VertexId source, const RunConfig& config,
                   ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);  // the width follows ctx's pool
  return RunSsspAtWidth(handle, source, config, ctx, BucketWidth(handle, config));
}

}  // namespace egraph
