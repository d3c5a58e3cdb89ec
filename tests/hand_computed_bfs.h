// A 10-vertex DAG plus a disconnected pair, and the push BFS from vertex 0
// computed by hand. BFS discovers the levels
//   {0} -> {1,2} -> {3,4} -> {5,6} -> {7}
// so push over adjacency lists must report exactly, round by round:
//   frontier sizes 1,2,2,2,1
//   edges scanned  2,3,3,2,0   (sum of frontier out-degrees)
//   edges relaxed  2,2,2,1,0   (successful CAS claims = new discoveries)
// The edge array and the grid scan all 11 stored edges every round and
// relax the same edges. The obs tests check a single run's EngineTrace
// against it; the concurrent tests check every run's trace while other runs
// scan a larger graph.
#ifndef TESTS_HAND_COMPUTED_BFS_H_
#define TESTS_HAND_COMPUTED_BFS_H_

#include <cstdint>

#include "src/graph/edge_list.h"

namespace egraph {

inline EdgeList HandComputedGraph() {
  EdgeList graph;
  graph.set_num_vertices(10);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 3);
  graph.AddEdge(2, 3);
  graph.AddEdge(2, 4);
  graph.AddEdge(3, 5);
  graph.AddEdge(4, 5);
  graph.AddEdge(4, 6);
  graph.AddEdge(5, 7);
  graph.AddEdge(6, 7);
  graph.AddEdge(8, 9);  // unreachable from 0
  return graph;
}

inline constexpr int kHandBfsRounds = 5;
inline constexpr int64_t kHandBfsFrontier[kHandBfsRounds] = {1, 2, 2, 2, 1};
inline constexpr int64_t kHandBfsScanned[kHandBfsRounds] = {2, 3, 3, 2, 0};
inline constexpr int64_t kHandBfsRelaxed[kHandBfsRounds] = {2, 2, 2, 1, 0};
inline constexpr int64_t kHandGraphEdges = 11;

}  // namespace egraph

#endif  // TESTS_HAND_COMPUTED_BFS_H_
