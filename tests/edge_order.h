// Two stored orders of one test input: its edges, weights attached, sorted
// by source vertex or shuffled edge by edge. The kernels cut their work into
// fixed grains over the stored order (edge-array chunks, the contents of a
// grid cell, the order within an adjacency list), so a cell run on both
// orders checks that how the work falls into grains never changes a result.
#ifndef TESTS_EDGE_ORDER_H_
#define TESTS_EDGE_ORDER_H_

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/util/rng.h"

namespace egraph {

enum class EdgeOrder { kVertex, kEdge };

inline const char* EdgeOrderName(EdgeOrder order) {
  return order == EdgeOrder::kVertex ? "vertex" : "edge";
}

// `graph`'s edges and weights in `order`: kVertex stable-sorts them by
// source vertex, kEdge applies a seeded Fisher-Yates shuffle.
inline EdgeList Reordered(const EdgeList& graph, EdgeOrder order) {
  const std::vector<Edge>& edges = graph.edges();
  std::vector<EdgeIndex> perm(edges.size());
  std::iota(perm.begin(), perm.end(), EdgeIndex{0});
  if (order == EdgeOrder::kVertex) {
    std::stable_sort(perm.begin(), perm.end(), [&edges](EdgeIndex a, EdgeIndex b) {
      return edges[a].src < edges[b].src;
    });
  } else {
    Xoshiro256 rng(0x5a17);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
  }
  EdgeList out(graph.num_vertices(), {});
  out.Reserve(graph.num_edges());
  for (const EdgeIndex e : perm) {
    if (graph.has_weights()) {
      out.AddWeightedEdge(edges[e].src, edges[e].dst, graph.weights()[e]);
    } else {
      out.AddEdge(edges[e].src, edges[e].dst);
    }
  }
  return out;
}

}  // namespace egraph

#endif  // TESTS_EDGE_ORDER_H_
