// Degree and shape statistics. The paper's conclusions hinge on two graph
// properties — degree skew (power law vs uniform) and diameter — so the
// generators are validated against these statistics in tests, and benches
// print them alongside results (paper Table 1).
#ifndef SRC_GRAPH_STATS_H_
#define SRC_GRAPH_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/edge_list.h"

namespace egraph {

struct GraphStats {
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;
  uint32_t max_out_degree = 0;
  uint32_t max_in_degree = 0;
  double avg_degree = 0.0;
  // Fraction of edges owned by the top 1% highest-out-degree vertices;
  // close to 0.01 * avg share for uniform graphs, large for power laws.
  double top1pct_out_edge_share = 0.0;
  VertexId isolated_vertices = 0;  // no in or out edges
};

// Computes statistics with two parallel passes over the edge array.
GraphStats ComputeStats(const EdgeList& graph);

// Out-degree of every vertex (parallel count).
std::vector<uint32_t> OutDegrees(const EdgeList& graph);

// In-degree of every vertex (parallel count).
std::vector<uint32_t> InDegrees(const EdgeList& graph);

// Adds one to counts[e.*key] for every edge e, in parallel: the count pass
// of the degree arrays and of count sort. The adds are atomic, or plain
// when the call runs alone (ThreadPool::CallRunsAlone).
void CountEdgeKeys(std::span<const Edge> edges, VertexId Edge::*key,
                   std::vector<uint32_t>& counts);

// BFS-based diameter estimate: the eccentricity of `source` in the
// undirected view of the graph (lower bound on diameter). Sequential;
// intended for tests and dataset tables on laptop-scale graphs.
uint32_t EstimateEccentricity(const EdgeList& graph, VertexId source);

}  // namespace egraph

#endif  // SRC_GRAPH_STATS_H_
