// Whole-graph analytics built from the library's primitives: clustering
// coefficient (triangles / wedges) and a double-sweep diameter estimate.
// These are the summary statistics a practitioner computes before choosing
// a configuration with the section-9 advisor (diameter and degree shape are
// exactly what the paper's roadmap branches on).
#ifndef SRC_ALGOS_ANALYTICS_H_
#define SRC_ALGOS_ANALYTICS_H_

#include <cstdint>

#include "src/graph/edge_list.h"

namespace egraph {

// Global clustering coefficient of the undirected simple view:
// 3 * triangles / wedges, in [0, 1]. 0 when the graph has no wedges.
// Symmetrizes/deduplicates internally (the input is taken as directed).
double GlobalClusteringCoefficient(const EdgeList& graph);

// Diameter lower bound via the double-sweep heuristic over the undirected
// view: BFS from `seed`, then BFS from the farthest vertex found (the
// smallest id in the last level); repeat `sweeps` times, chaining the
// farthest endpoints. Exact on trees; a tight
// lower bound in practice.
uint32_t EstimateDiameter(const EdgeList& graph, int sweeps = 2, VertexId seed = 0);

}  // namespace egraph

#endif  // SRC_ALGOS_ANALYTICS_H_
