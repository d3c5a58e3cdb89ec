#include "src/algos/triangles.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/engine/scan.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {

TriangleResult RunTriangleCount(GraphHandle& handle, const RunConfig& config,
                                ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  RunConfig tc_config = config;
  tc_config.layout = Layout::kAdjacency;
  tc_config.direction = Direction::kPush;
  PrepareForRun(handle, tc_config);

  TriangleResult result;
  const VertexId n = handle.num_vertices();
  const Csr& csr = handle.out_csr();

  Timer total;
  // One round over every vertex. Its loops walk the lists directly, not
  // through an engine kernel, so the round carries no edge counts.
  obs::TraceSession trace(result.stats.trace, "triangles", tc_config.layout,
                          tc_config.direction, tc_config.sync);
  trace.BeginIteration(n, /*frontier_sparse=*/false);
  // Rank vertices by (degree, id); orient edges toward higher rank. Each
  // vertex's oriented neighbor list is sorted by id for fast intersection.
  std::vector<uint32_t> degree(n);
  VertexMap(n, [&](VertexId v) { degree[v] = csr.Degree(v); });
  auto rank_less = [&degree](VertexId a, VertexId b) {
    return degree[a] != degree[b] ? degree[a] < degree[b] : a < b;
  };

  std::vector<std::vector<VertexId>> oriented(n);
  ParallelForGrain(0, static_cast<int64_t>(n), /*grain=*/256, [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    auto& list = oriented[static_cast<size_t>(vi)];
    for (const VertexId u : csr.Neighbors(v)) {
      if (rank_less(v, u)) {
        list.push_back(u);
      }
    }
    std::sort(list.begin(), list.end());
  });

  const uint64_t count = ParallelReduceSum<uint64_t>(
      0, static_cast<int64_t>(n), [&](int64_t vi) {
        const auto& vu = oriented[static_cast<size_t>(vi)];
        uint64_t local = 0;
        for (const VertexId u : vu) {
          // Sorted-list intersection |oriented(v) ∩ oriented(u)|.
          const auto& uw = oriented[u];
          size_t a = 0;
          size_t b = 0;
          while (a < vu.size() && b < uw.size()) {
            if (vu[a] < uw[b]) {
              ++a;
            } else if (vu[a] > uw[b]) {
              ++b;
            } else {
              ++local;
              ++a;
              ++b;
            }
          }
        }
        return local;
      });

  trace.EndIteration(tc_config.direction, /*edges_scanned=*/0, /*edges_relaxed=*/0);
  result.triangles = count;
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

uint64_t RefTriangleCount(const EdgeList& undirected_simple) {
  const VertexId n = undirected_simple.num_vertices();
  std::vector<std::set<VertexId>> adj(n);
  for (const Edge& e : undirected_simple.edges()) {
    if (e.src != e.dst) {
      adj[e.src].insert(e.dst);
    }
  }
  uint64_t count = 0;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b : adj[a]) {
      if (b <= a) {
        continue;
      }
      for (VertexId c : adj[b]) {
        if (c <= b) {
          continue;
        }
        if (adj[a].count(c) != 0) {
          ++count;
        }
      }
    }
  }
  return count;
}

}  // namespace egraph
