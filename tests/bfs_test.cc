// BFS correctness across every layout x direction x sync configuration:
// the parent tree must realize exactly the reference BFS levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "src/algos/bfs.h"
#include "src/algos/reference.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"

namespace egraph {
namespace {

// Validates a parent array against reference levels: reachability must
// match, every parent edge must exist, and levels must be consistent
// (level(v) == level(parent(v)) + 1).
void ValidateParents(const EdgeList& graph, VertexId source,
                     const std::vector<VertexId>& parent) {
  const std::vector<uint32_t> levels = RefBfsLevels(graph, source);
  ASSERT_EQ(parent.size(), graph.num_vertices());
  ASSERT_EQ(parent[source], source);
  std::set<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : graph.edges()) {
    edges.insert({e.src, e.dst});
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] == UINT32_MAX) {
      EXPECT_EQ(parent[v], kInvalidVertex) << "unreachable vertex " << v;
      continue;
    }
    ASSERT_NE(parent[v], kInvalidVertex) << "reachable vertex " << v;
    if (v == source) {
      continue;
    }
    // The tree edge must be a real graph edge one level up.
    ASSERT_TRUE(edges.count({parent[v], v})) << parent[v] << "->" << v;
    EXPECT_EQ(levels[v], levels[parent[v]] + 1) << "vertex " << v;
  }
}

using BfsParam = std::tuple<Layout, Direction, Sync>;

class BfsConfigTest : public ::testing::TestWithParam<BfsParam> {
 protected:
  static void SetUpTestSuite() {
    RmatOptions options;
    options.scale = 10;
    graph_ = new EdgeList(GenerateRmat(options));
  }
  static void TearDownTestSuite() { delete graph_; }
  static EdgeList* graph_;
};

EdgeList* BfsConfigTest::graph_ = nullptr;

TEST_P(BfsConfigTest, ParentTreeMatchesReference) {
  const auto [layout, direction, sync] = GetParam();
  GraphHandle handle(*graph_);
  RunConfig config;
  config.layout = layout;
  config.direction = direction;
  config.sync = sync;
  const BfsResult result = RunBfs(handle, /*source=*/0, config);
  ValidateParents(*graph_, 0, result.parent);
  EXPECT_GT(result.stats.rounds(), 0);
  EXPECT_EQ(result.stats.trace.iterations.size(), static_cast<size_t>(result.stats.rounds()));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BfsConfigTest,
    ::testing::Values(
        BfsParam{Layout::kAdjacency, Direction::kPush, Sync::kAtomics},
        BfsParam{Layout::kAdjacency, Direction::kPush, Sync::kLocks},
        BfsParam{Layout::kAdjacency, Direction::kPull, Sync::kLockFree},
        BfsParam{Layout::kAdjacency, Direction::kPushPull, Sync::kAtomics},
        BfsParam{Layout::kEdgeArray, Direction::kPush, Sync::kAtomics},
        BfsParam{Layout::kEdgeArray, Direction::kPush, Sync::kLocks},
        BfsParam{Layout::kGrid, Direction::kPush, Sync::kLockFree},
        BfsParam{Layout::kGrid, Direction::kPush, Sync::kLocks},
        BfsParam{Layout::kGrid, Direction::kPush, Sync::kAtomics}),
    [](const ::testing::TestParamInfo<BfsParam>& info) {
      std::string name = std::string(LayoutName(std::get<0>(info.param))) + "_" +
                         DirectionName(std::get<1>(info.param)) + "_" +
                         SyncName(std::get<2>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Bfs, RoadGraphHighDiameter) {
  RoadOptions options;
  options.width = 48;
  options.height = 48;
  const EdgeList graph = GenerateRoad(options);
  GraphHandle handle(graph);
  RunConfig config;
  const BfsResult result = RunBfs(handle, 0, config);
  ValidateParents(graph, 0, result.parent);
  // Road proxy: BFS needs ~diameter iterations, far more than a power law.
  EXPECT_GT(result.stats.rounds(), 40);
}

TEST(Bfs, SourceOutOfRangeReturnsAllInvalid) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  GraphHandle handle(graph);
  const BfsResult result = RunBfs(handle, 99, RunConfig{});
  for (const VertexId p : result.parent) {
    EXPECT_EQ(p, kInvalidVertex);
  }
}

TEST(Bfs, IsolatedSourceDiscoversOnlyItself) {
  EdgeList graph;
  graph.set_num_vertices(5);
  graph.AddEdge(1, 2);
  GraphHandle handle(graph);
  const BfsResult result = RunBfs(handle, 0, RunConfig{});
  EXPECT_EQ(result.parent[0], 0u);
  for (VertexId v = 1; v < 5; ++v) {
    EXPECT_EQ(result.parent[v], kInvalidVertex);
  }
}

TEST(Bfs, FrontierSizesTrackDiscovery) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  const BfsResult result = RunBfs(handle, 0, RunConfig{});
  const std::vector<obs::IterationRecord>& rounds = result.stats.trace.iterations;
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(rounds[0].frontier_size, 1);  // just the source
  // Total discovered == sum of frontier sizes.
  int64_t discovered = 0;
  for (const obs::IterationRecord& round : rounds) {
    discovered += round.frontier_size;
  }
  int64_t reached = 0;
  for (const VertexId p : result.parent) {
    if (p != kInvalidVertex) {
      ++reached;
    }
  }
  EXPECT_EQ(discovered, reached);
}

TEST(Bfs, PushPullRecordsSwitchDecisions) {
  RmatOptions options;
  options.scale = 11;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  RunConfig config;
  config.direction = Direction::kPushPull;
  const BfsResult result = RunBfs(handle, 0, config);
  // Every round records the direction it resolved to.
  const std::vector<obs::IterationRecord>& rounds = result.stats.trace.iterations;
  ASSERT_EQ(rounds.size(), static_cast<size_t>(result.stats.rounds()));
  ASSERT_FALSE(rounds.empty());
  // Paper Fig. 6: early iterations push, the explosion iterations pull.
  EXPECT_EQ(rounds.front().direction, Direction::kPush);
  bool any_pull = false;
  for (const obs::IterationRecord& round : rounds) {
    EXPECT_NE(round.direction, Direction::kPushPull);
    any_pull |= round.direction == Direction::kPull;
  }
  EXPECT_TRUE(any_pull);
}

}  // namespace
}  // namespace egraph
