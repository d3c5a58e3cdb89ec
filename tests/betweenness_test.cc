// Betweenness centrality tests against the sequential Brandes reference.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "src/algos/betweenness.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"

namespace egraph {
namespace {

void ExpectCentralityNear(const std::vector<double>& got, const std::vector<double>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-9 + 1e-6 * expected[v]) << "vertex " << v;
  }
}

TEST(Betweenness, PathGraphMiddleDominates) {
  // 0 -> 1 -> 2 -> 3 -> 4: from all sources, vertex 2 lies on the most
  // shortest paths.
  EdgeList graph;
  graph.set_num_vertices(5);
  for (VertexId v = 0; v + 1 < 5; ++v) {
    graph.AddEdge(v, v + 1);
  }
  std::vector<VertexId> sources(5);
  std::iota(sources.begin(), sources.end(), 0u);
  GraphHandle handle(graph);
  const BcResult result = RunBetweenness(handle, sources, RunConfig{});
  // Path graph (directed): centrality of v = (#predecessors)*(#successors).
  EXPECT_DOUBLE_EQ(result.centrality[0], 0.0);
  EXPECT_DOUBLE_EQ(result.centrality[1], 3.0);
  EXPECT_DOUBLE_EQ(result.centrality[2], 4.0);
  EXPECT_DOUBLE_EQ(result.centrality[3], 3.0);
  EXPECT_DOUBLE_EQ(result.centrality[4], 0.0);
}

TEST(Betweenness, DiamondSplitsPathCounts) {
  // 0 -> {1, 2} -> 3: two equal shortest paths; 1 and 2 each carry half.
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 3);
  graph.AddEdge(2, 3);
  const std::vector<VertexId> sources{0};
  GraphHandle handle(graph);
  const BcResult result = RunBetweenness(handle, sources, RunConfig{});
  EXPECT_DOUBLE_EQ(result.centrality[1], 0.5);
  EXPECT_DOUBLE_EQ(result.centrality[2], 0.5);
  EXPECT_DOUBLE_EQ(result.centrality[3], 0.0);
}

TEST(Betweenness, MatchesReferenceOnRandomGraphs) {
  for (const uint64_t seed : {1ull, 7ull}) {
    ErdosRenyiOptions options;
    options.num_vertices = 300;
    options.num_edges = 2500;
    options.seed = seed;
    const EdgeList graph = GenerateErdosRenyi(options);
    std::vector<VertexId> sources{0, 17, 42, 299};
    GraphHandle handle(graph);
    const BcResult result = RunBetweenness(handle, sources, RunConfig{});
    ExpectCentralityNear(result.centrality, RefBetweenness(graph, sources));
  }
}

// Every direction x sync pair of the forward phase.
TEST(Betweenness, MatchesReferenceOnPowerLaw) {
  RmatOptions options;
  options.scale = 8;
  const EdgeList graph = GenerateRmat(options);
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < graph.num_vertices(); v += 37) {
    sources.push_back(v);
  }
  const std::vector<double> expected = RefBetweenness(graph, sources);
  for (const Direction direction : {Direction::kPush, Direction::kPull, Direction::kPushPull}) {
    for (const Sync sync : {Sync::kAtomics, Sync::kLocks, Sync::kLockFree}) {
      SCOPED_TRACE(std::string(DirectionName(direction)) + "/" + SyncName(sync));
      RunConfig config;
      config.direction = direction;
      config.sync = sync;
      GraphHandle handle(graph);
      const BcResult result = RunBetweenness(handle, sources, config);
      ExpectCentralityNear(result.centrality, expected);
    }
  }
}

TEST(Betweenness, UnreachableAndInvalidSources) {
  EdgeList graph;
  graph.set_num_vertices(3);
  graph.AddEdge(0, 1);
  const std::vector<VertexId> sources{2, 99};  // 2 reaches nothing; 99 invalid
  GraphHandle handle(graph);
  const BcResult result = RunBetweenness(handle, sources, RunConfig{});
  for (const double c : result.centrality) {
    EXPECT_DOUBLE_EQ(c, 0.0);
  }
}

}  // namespace
}  // namespace egraph
