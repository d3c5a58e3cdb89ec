#include "src/graph/stats.h"

#include <algorithm>
#include <queue>

#include "src/util/atomics.h"
#include "src/util/parallel.h"
#include "src/util/thread_pool.h"

namespace egraph {

void CountEdgeKeys(std::span<const Edge> edges, VertexId Edge::*key,
                   std::vector<uint32_t>& counts) {
  if (ThreadPool::CallRunsAlone()) {
    for (const Edge& e : edges) {
      ++counts[e.*key];
    }
    return;
  }
  ParallelFor(0, static_cast<int64_t>(edges.size()), [&](int64_t i) {
    AtomicAdd(&counts[edges[static_cast<size_t>(i)].*key], 1u);
  });
}

std::vector<uint32_t> OutDegrees(const EdgeList& graph) {
  std::vector<uint32_t> degrees(graph.num_vertices(), 0);
  CountEdgeKeys(graph.edges(), &Edge::src, degrees);
  return degrees;
}

std::vector<uint32_t> InDegrees(const EdgeList& graph) {
  std::vector<uint32_t> degrees(graph.num_vertices(), 0);
  CountEdgeKeys(graph.edges(), &Edge::dst, degrees);
  return degrees;
}

GraphStats ComputeStats(const EdgeList& graph) {
  GraphStats stats;
  stats.num_vertices = graph.num_vertices();
  stats.num_edges = graph.num_edges();
  if (stats.num_vertices == 0) {
    return stats;
  }
  std::vector<uint32_t> out = OutDegrees(graph);
  std::vector<uint32_t> in = InDegrees(graph);

  const int64_t n = static_cast<int64_t>(stats.num_vertices);
  stats.max_out_degree = ParallelReduceMax<uint32_t>(
      0, n, 0, [&](int64_t v) { return out[static_cast<size_t>(v)]; });
  stats.max_in_degree = ParallelReduceMax<uint32_t>(
      0, n, 0, [&](int64_t v) { return in[static_cast<size_t>(v)]; });
  stats.avg_degree =
      static_cast<double>(stats.num_edges) / static_cast<double>(stats.num_vertices);
  stats.isolated_vertices = static_cast<VertexId>(ParallelReduceSum<int64_t>(0, n, [&](int64_t v) {
    return out[static_cast<size_t>(v)] == 0 && in[static_cast<size_t>(v)] == 0 ? 1 : 0;
  }));

  // Edge share of the top 1% of vertices by out degree.
  std::vector<uint32_t> sorted = out;
  std::sort(sorted.begin(), sorted.end(), std::greater<uint32_t>());
  const size_t top = std::max<size_t>(1, sorted.size() / 100);
  uint64_t top_edges = 0;
  for (size_t i = 0; i < top; ++i) {
    top_edges += sorted[i];
  }
  if (stats.num_edges > 0) {
    stats.top1pct_out_edge_share =
        static_cast<double>(top_edges) / static_cast<double>(stats.num_edges);
  }
  return stats;
}

uint32_t EstimateEccentricity(const EdgeList& graph, VertexId source) {
  const VertexId n = graph.num_vertices();
  if (n == 0 || source >= n) {
    return 0;
  }
  // Build a throwaway undirected adjacency structure (sequential: this is a
  // test/table helper, not a measured code path).
  std::vector<uint32_t> degree(n, 0);
  for (const Edge& e : graph.edges()) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::vector<uint64_t> offset(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offset[v + 1] = offset[v] + degree[v];
  }
  std::vector<VertexId> neighbors(offset[n]);
  std::vector<uint64_t> cursor(offset.begin(), offset.end() - 1);
  for (const Edge& e : graph.edges()) {
    neighbors[cursor[e.src]++] = e.dst;
    neighbors[cursor[e.dst]++] = e.src;
  }

  std::vector<uint32_t> dist(n, UINT32_MAX);
  std::queue<VertexId> queue;
  dist[source] = 0;
  queue.push(source);
  uint32_t max_dist = 0;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop();
    for (uint64_t i = offset[u]; i < offset[u + 1]; ++i) {
      const VertexId v = neighbors[i];
      if (dist[v] == UINT32_MAX) {
        dist[v] = dist[u] + 1;
        max_dist = std::max(max_dist, dist[v]);
        queue.push(v);
      }
    }
  }
  return max_dist;
}

}  // namespace egraph
