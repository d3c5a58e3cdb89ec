#include "src/algos/als.h"

#include <cmath>

#include "src/algos/linalg.h"
#include "src/engine/scan.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Solves the ridge normal equations for one vertex: given the fixed factors
// of its neighbors (q_j) and ratings r_j, find p minimizing
// sum_j (r_j - p.q_j)^2 + lambda * |p|^2.
void SolveVertex(std::span<const VertexId> neighbors, std::span<const float> ratings,
                 const float* fixed_factors, VertexId fixed_base, int rank, float lambda,
                 float* out) {
  const int k = rank;
  std::vector<double> a(static_cast<size_t>(k) * k, 0.0);
  std::vector<double> b(static_cast<size_t>(k), 0.0);
  for (size_t j = 0; j < neighbors.size(); ++j) {
    const float* q = fixed_factors + static_cast<size_t>(neighbors[j] - fixed_base) * k;
    const double r = ratings.empty() ? 1.0 : ratings[j];
    for (int x = 0; x < k; ++x) {
      b[x] += r * q[x];
      for (int y = 0; y <= x; ++y) {
        a[static_cast<size_t>(x) * k + y] += static_cast<double>(q[x]) * q[y];
      }
    }
  }
  // Symmetrize and regularize (lambda scaled by the rating count, the
  // weighted-lambda variant of Zhou et al.).
  const double reg = lambda * static_cast<double>(neighbors.empty() ? 1 : neighbors.size());
  for (int x = 0; x < k; ++x) {
    for (int y = x + 1; y < k; ++y) {
      a[static_cast<size_t>(x) * k + y] = a[static_cast<size_t>(y) * k + x];
    }
    a[static_cast<size_t>(x) * k + x] += reg;
  }
  if (!CholeskySolveInPlace(a.data(), b.data(), k)) {
    // Degenerate system (should not happen with reg > 0): keep old factors.
    return;
  }
  for (int x = 0; x < k; ++x) {
    out[x] = static_cast<float>(b[x]);
  }
}

}  // namespace

AlsResult RunAls(GraphHandle& handle, uint32_t num_users, const AlsOptions& options,
                 const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  // ALS alternates over both sides: it always needs both CSR directions.
  RunConfig als_config = config;
  als_config.layout = Layout::kAdjacency;
  als_config.direction = Direction::kPushPull;  // forces out + in CSRs
  PrepareForRun(handle, als_config);

  AlsResult result;
  const VertexId n = handle.num_vertices();
  const uint32_t num_items = n - num_users;
  const int k = options.rank;

  Timer total;
  // Both half-steps gather into the vertex they solve: pull rounds. They
  // walk the lists directly, not through an engine kernel, so the rounds
  // carry no edge counts.
  obs::TraceSession trace(result.stats.trace, "als", Layout::kAdjacency, Direction::kPull,
                          config.sync);
  result.user_factors.assign(static_cast<size_t>(num_users) * k, 0.0f);
  result.item_factors.assign(static_cast<size_t>(num_items) * k, 0.0f);
  {
    // Small random initialization, deterministic per vertex.
    ParallelFor(0, static_cast<int64_t>(num_users), [&](int64_t u) {
      uint64_t stream = options.seed ^ static_cast<uint64_t>(u);
      Xoshiro256 rng(SplitMix64(stream));
      for (int x = 0; x < k; ++x) {
        result.user_factors[static_cast<size_t>(u) * k + x] = 0.1f + 0.5f * rng.NextFloat();
      }
    });
    ParallelFor(0, static_cast<int64_t>(num_items), [&](int64_t i) {
      uint64_t stream = options.seed ^ (0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(i));
      Xoshiro256 rng(SplitMix64(stream));
      for (int x = 0; x < k; ++x) {
        result.item_factors[static_cast<size_t>(i) * k + x] = 0.1f + 0.5f * rng.NextFloat();
      }
    });
  }

  const Csr& by_user = handle.out_csr();  // user -> rated items
  const Csr& by_item = handle.in_csr();   // item -> rating users

  for (int iter = 0; iter < options.iterations; ++iter) {
    trace.BeginIteration(n, /*frontier_sparse=*/false);
    // Half-step 1: users from items (active side: users).
    ParallelForGrain(0, static_cast<int64_t>(num_users), /*grain=*/64, [&](int64_t u) {
      const VertexId v = static_cast<VertexId>(u);
      SolveVertex(by_user.Neighbors(v), by_user.Weights(v), result.item_factors.data(),
                  num_users, k, options.lambda,
                  result.user_factors.data() + static_cast<size_t>(u) * k);
    });
    // Half-step 2: items from users (active side: items).
    ParallelForGrain(0, static_cast<int64_t>(num_items), /*grain=*/16, [&](int64_t i) {
      const VertexId v = static_cast<VertexId>(num_users + i);
      SolveVertex(by_item.Neighbors(v), by_item.Weights(v), result.user_factors.data(),
                  0, k, options.lambda,
                  result.item_factors.data() + static_cast<size_t>(i) * k);
    });

    // Training RMSE over all ratings.
    const auto& edges = handle.edges().edges();
    const double sse = ParallelReduceSum<double>(
        0, static_cast<int64_t>(edges.size()), [&](int64_t e) {
          const Edge& edge = edges[static_cast<size_t>(e)];
          const float* p = result.user_factors.data() + static_cast<size_t>(edge.src) * k;
          const float* q =
              result.item_factors.data() + static_cast<size_t>(edge.dst - num_users) * k;
          double dot = 0.0;
          for (int x = 0; x < k; ++x) {
            dot += static_cast<double>(p[x]) * q[x];
          }
          const double err = handle.edges().EdgeWeight(static_cast<EdgeIndex>(e)) - dot;
          return err * err;
        });
    result.rmse_per_iteration.push_back(
        std::sqrt(sse / static_cast<double>(edges.empty() ? 1 : edges.size())));
    trace.EndIteration(Direction::kPull, /*edges_scanned=*/0, /*edges_relaxed=*/0);
  }
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
