// k-core decomposition tests against the sequential bucket-peeling
// reference, plus structural invariants of core numbers.
#include <gtest/gtest.h>

#include <string>

#include "src/algos/kcore.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"

namespace egraph {
namespace {

EdgeList Undirected(EdgeList graph) {
  EdgeList u = graph.MakeUndirected();
  u.RemoveSelfLoops();
  u.RemoveDuplicateEdges();
  return u;
}

TEST(Kcore, TriangleWithTail) {
  // Triangle {0,1,2} (core 2) with tail 2-3 (vertex 3: core 1) and isolated
  // vertex 4 (core 0).
  EdgeList graph;
  graph.set_num_vertices(5);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  graph.AddEdge(2, 3);
  const EdgeList undirected = Undirected(graph);
  GraphHandle handle(undirected);
  const KcoreResult result = RunKcore(handle, RunConfig{});
  EXPECT_EQ(result.core[0], 2u);
  EXPECT_EQ(result.core[1], 2u);
  EXPECT_EQ(result.core[2], 2u);
  EXPECT_EQ(result.core[3], 1u);
  EXPECT_EQ(result.core[4], 0u);
  EXPECT_EQ(result.max_core, 2u);
}

TEST(Kcore, CliqueCoreIsSizeMinusOne) {
  EdgeList graph;
  graph.set_num_vertices(6);
  for (VertexId a = 0; a < 6; ++a) {
    for (VertexId b = a + 1; b < 6; ++b) {
      graph.AddEdge(a, b);
    }
  }
  const EdgeList undirected = Undirected(graph);
  GraphHandle handle(undirected);
  const KcoreResult result = RunKcore(handle, RunConfig{});
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(result.core[v], 5u);
  }
}

// Every layout x direction x sync cell peels each vertex exactly once and
// matches the reference.
TEST(Kcore, MatchesReferenceOnRmat) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList undirected = Undirected(GenerateRmat(options));
  const std::vector<uint32_t> expected = RefKcore(undirected);
  for (const Layout layout : {Layout::kAdjacency, Layout::kCompressed, Layout::kEdgeArray,
                              Layout::kGrid, Layout::kSharded}) {
    for (const Direction direction :
         {Direction::kPush, Direction::kPull, Direction::kPushPull}) {
      for (const Sync sync : {Sync::kAtomics, Sync::kLocks, Sync::kLockFree}) {
        RunConfig config;
        config.layout = layout;
        config.direction = direction;
        config.sync = sync;
        const std::string cell = std::string(LayoutName(layout)) + "/" +
                                 DirectionName(direction) + "/" + SyncName(sync);
        GraphHandle handle(undirected);
        const KcoreResult result = RunKcore(handle, config);
        EXPECT_EQ(result.core, expected) << cell;
        int64_t peeled = 0;
        for (const obs::IterationRecord& round : result.stats.trace.iterations) {
          peeled += round.frontier_size;
        }
        EXPECT_EQ(peeled, int64_t{undirected.num_vertices()}) << cell;
      }
    }
  }
}

// Core numbers do not depend on the pool width.
TEST(Kcore, BitIdenticalAcrossPoolWidths) {
  RmatOptions options;
  options.scale = 12;
  const EdgeList undirected = Undirected(GenerateRmat(options));
  ExecutionContextOptions one_thread;
  one_thread.num_threads = 1;
  ExecutionContextOptions four_threads;
  four_threads.num_threads = 4;
  ExecutionContext ctx1(one_thread);
  ExecutionContext ctx4(four_threads);
  GraphHandle h1(undirected);
  GraphHandle h4(undirected);
  const KcoreResult a = RunKcore(h1, RunConfig{}, ctx1);
  const KcoreResult b = RunKcore(h4, RunConfig{}, ctx4);
  EXPECT_EQ(a.core, b.core);
  EXPECT_EQ(a.max_core, b.max_core);
}

TEST(Kcore, MatchesReferenceOnUniform) {
  ErdosRenyiOptions options;
  options.num_vertices = 2000;
  options.num_edges = 12000;
  const EdgeList undirected = Undirected(GenerateErdosRenyi(options));
  GraphHandle handle(undirected);
  const KcoreResult result = RunKcore(handle, RunConfig{});
  EXPECT_EQ(result.core, RefKcore(undirected));
}

TEST(Kcore, CoreNumbersAreSelfConsistent) {
  // Invariant: in the subgraph induced by {v : core[v] >= k}, every vertex
  // has degree >= k, for k = max_core.
  RmatOptions options;
  options.scale = 9;
  const EdgeList undirected = Undirected(GenerateRmat(options));
  GraphHandle handle(undirected);
  const KcoreResult result = RunKcore(handle, RunConfig{});
  const uint32_t k = result.max_core;
  std::vector<uint32_t> degree_in_core(undirected.num_vertices(), 0);
  for (const Edge& e : undirected.edges()) {
    if (result.core[e.src] >= k && result.core[e.dst] >= k) {
      ++degree_in_core[e.src];
    }
  }
  for (VertexId v = 0; v < undirected.num_vertices(); ++v) {
    if (result.core[v] >= k) {
      EXPECT_GE(degree_in_core[v], k) << "vertex " << v;
    }
  }
}

TEST(Kcore, EmptyGraphAllZero) {
  EdgeList graph;
  graph.set_num_vertices(4);
  GraphHandle handle(graph);
  const KcoreResult result = RunKcore(handle, RunConfig{});
  EXPECT_EQ(result.max_core, 0u);
  for (const uint32_t c : result.core) {
    EXPECT_EQ(c, 0u);
  }
}

}  // namespace
}  // namespace egraph
