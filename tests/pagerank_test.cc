// Pagerank correctness: every layout/direction/sync configuration must agree
// with the sequential reference; ranks stay a probability distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "src/algos/pagerank.h"
#include "src/algos/reference.h"
#include "src/gen/rmat.h"

namespace egraph {
namespace {

void ExpectRanksNear(const std::vector<float>& got, const std::vector<float>& expected,
                     float tolerance = 2e-4f) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], tolerance) << "vertex " << v;
  }
}

using PrParam = std::tuple<Layout, Direction, Sync>;

class PagerankConfigTest : public ::testing::TestWithParam<PrParam> {
 protected:
  static void SetUpTestSuite() {
    RmatOptions options;
    options.scale = 10;
    graph_ = new EdgeList(GenerateRmat(options));
    expected_ = new std::vector<float>(RefPagerank(*graph_, 10, 0.85f));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete expected_;
  }
  static EdgeList* graph_;
  static std::vector<float>* expected_;
};

EdgeList* PagerankConfigTest::graph_ = nullptr;
std::vector<float>* PagerankConfigTest::expected_ = nullptr;

TEST_P(PagerankConfigTest, MatchesSequentialReference) {
  const auto [layout, direction, sync] = GetParam();
  GraphHandle handle(*graph_);
  RunConfig config;
  config.layout = layout;
  config.direction = direction;
  config.sync = sync;
  const PagerankResult result = RunPagerank(handle, PagerankOptions{}, config);
  ExpectRanksNear(result.rank, *expected_);
  EXPECT_EQ(result.stats.rounds(), 10);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PagerankConfigTest,
    ::testing::Values(PrParam{Layout::kAdjacency, Direction::kPush, Sync::kAtomics},
                      PrParam{Layout::kAdjacency, Direction::kPush, Sync::kLocks},
                      PrParam{Layout::kAdjacency, Direction::kPull, Sync::kLockFree},
                      PrParam{Layout::kEdgeArray, Direction::kPush, Sync::kAtomics},
                      PrParam{Layout::kEdgeArray, Direction::kPush, Sync::kLocks},
                      PrParam{Layout::kGrid, Direction::kPush, Sync::kLocks},
                      PrParam{Layout::kGrid, Direction::kPush, Sync::kAtomics},
                      PrParam{Layout::kGrid, Direction::kPull, Sync::kLockFree}),
    [](const ::testing::TestParamInfo<PrParam>& info) {
      std::string name = std::string(LayoutName(std::get<0>(info.param))) + "_" +
                         DirectionName(std::get<1>(info.param)) + "_" +
                         SyncName(std::get<2>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Pagerank, RanksSumToOne) {
  RmatOptions options;
  options.scale = 10;
  GraphHandle handle(GenerateRmat(options));
  const PagerankResult result = RunPagerank(handle, PagerankOptions{}, RunConfig{});
  double sum = 0.0;
  for (const float r : result.rank) {
    EXPECT_GT(r, 0.0f);
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-3);
}

TEST(Pagerank, DanglingMassIsRedistributed) {
  // 0 -> 1 -> 2, vertex 2 dangles. Without dangling handling rank leaks.
  EdgeList graph;
  graph.set_num_vertices(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  GraphHandle handle(graph);
  PagerankOptions options;
  options.iterations = 50;
  const PagerankResult result = RunPagerank(handle, options, RunConfig{});
  double sum = 0.0;
  for (const float r : result.rank) {
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-3);
  // Downstream vertices accumulate more rank.
  EXPECT_GT(result.rank[2], result.rank[0]);
}

TEST(Pagerank, HubReceivesHighRank) {
  // Star pointing at vertex 0: 0 must dominate.
  EdgeList graph;
  graph.set_num_vertices(10);
  for (VertexId v = 1; v < 10; ++v) {
    graph.AddEdge(v, 0);
  }
  GraphHandle handle(graph);
  const PagerankResult result = RunPagerank(handle, PagerankOptions{}, RunConfig{});
  const float hub = result.rank[0];
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_GT(hub, result.rank[v]);
  }
}

TEST(Pagerank, ZeroIterationsReturnsUniform) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  GraphHandle handle(graph);
  PagerankOptions options;
  options.iterations = 0;
  const PagerankResult result = RunPagerank(handle, options, RunConfig{});
  for (const float r : result.rank) {
    EXPECT_FLOAT_EQ(r, 0.25f);
  }
}

TEST(Pagerank, EmptyGraph) {
  EdgeList graph;
  GraphHandle handle(graph);
  const PagerankResult result = RunPagerank(handle, PagerankOptions{}, RunConfig{});
  EXPECT_TRUE(result.rank.empty());
}

TEST(Pagerank, PerIterationTimesRecorded) {
  RmatOptions options;
  options.scale = 9;
  GraphHandle handle(GenerateRmat(options));
  PagerankOptions pr_options;
  pr_options.iterations = 7;
  const PagerankResult result = RunPagerank(handle, pr_options, RunConfig{});
  EXPECT_EQ(result.stats.trace.iterations.size(), 7u);
  for (const obs::IterationRecord& round : result.stats.trace.iterations) {
    EXPECT_GE(round.seconds, 0.0);
  }
}

}  // namespace
}  // namespace egraph
