// SpMV correctness: y = A x must equal the sequential reference under every
// layout and synchronization mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "src/algos/reference.h"
#include "src/algos/spmv.h"
#include "src/gen/rmat.h"
#include "src/util/rng.h"
#include "tests/edge_order.h"

namespace egraph {
namespace {

std::vector<float> RandomVector(VertexId n, uint64_t seed) {
  std::vector<float> x(n);
  Xoshiro256 rng(seed);
  for (auto& v : x) {
    v = rng.NextFloat();
  }
  return x;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-2f) << "vertex " << v;
  }
}

EdgeList WeightedRmat() {
  RmatOptions options;
  options.scale = 10;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 1.0f, 9);
  return graph;
}

void ExpectSpmvMatchesReference(const RunConfig& config, const EdgeList& graph) {
  const std::vector<float> x = RandomVector(graph.num_vertices(), 4);
  const std::vector<float> expected = RefSpmv(graph, x);

  GraphHandle handle(graph);
  const SpmvResult result = RunSpmv(handle, x, config);
  ExpectNear(result.y, expected);
  EXPECT_EQ(result.stats.rounds(), 1);  // single pass by definition
}

using SpmvParam = std::tuple<Layout, Direction, Sync>;

class SpmvConfigTest : public ::testing::TestWithParam<SpmvParam> {};

TEST_P(SpmvConfigTest, MatchesReference) {
  RunConfig config;
  std::tie(config.layout, config.direction, config.sync) = GetParam();
  ExpectSpmvMatchesReference(config, WeightedRmat());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SpmvConfigTest,
    ::testing::Values(SpmvParam{Layout::kEdgeArray, Direction::kPush, Sync::kAtomics},
                      SpmvParam{Layout::kEdgeArray, Direction::kPush, Sync::kLocks},
                      SpmvParam{Layout::kAdjacency, Direction::kPush, Sync::kAtomics},
                      SpmvParam{Layout::kAdjacency, Direction::kPush, Sync::kLocks},
                      SpmvParam{Layout::kAdjacency, Direction::kPull, Sync::kLockFree},
                      SpmvParam{Layout::kGrid, Direction::kPush, Sync::kLocks},
                      SpmvParam{Layout::kGrid, Direction::kPull, Sync::kLockFree}),
    [](const ::testing::TestParamInfo<SpmvParam>& info) {
      std::string name = std::string(LayoutName(std::get<0>(info.param))) + "_" +
                         DirectionName(std::get<1>(info.param)) + "_" +
                         SyncName(std::get<2>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Every layout x direction under the default sync, compressed and sharded
// included, with the input's edges balanced over the kernels' fixed grains
// two ways: sorted by source vertex, or shuffled (tests/edge_order.h).
using SpmvBalanceParam = std::tuple<Layout, Direction, EdgeOrder>;

class SpmvBalanceTest : public ::testing::TestWithParam<SpmvBalanceParam> {};

TEST_P(SpmvBalanceTest, MatchesReference) {
  RunConfig config;
  EdgeOrder order;
  std::tie(config.layout, config.direction, order) = GetParam();
  ExpectSpmvMatchesReference(config, Reordered(WeightedRmat(), order));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SpmvBalanceTest,
    ::testing::Combine(::testing::Values(Layout::kAdjacency, Layout::kCompressed,
                                         Layout::kEdgeArray, Layout::kGrid,
                                         Layout::kSharded),
                       ::testing::Values(Direction::kPush, Direction::kPull),
                       ::testing::Values(EdgeOrder::kVertex, EdgeOrder::kEdge)),
    [](const ::testing::TestParamInfo<SpmvBalanceParam>& info) {
      std::string name = std::string(LayoutName(std::get<0>(info.param))) + "_" +
                         DirectionName(std::get<1>(info.param)) + "_" +
                         EdgeOrderName(std::get<2>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Spmv, UnweightedCountsInNeighbors) {
  // With x = all ones and unit weights, y[v] = in-degree(v).
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(2, 1);
  graph.AddEdge(3, 1);
  graph.AddEdge(1, 0);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const SpmvResult result = RunSpmv(handle, {1, 1, 1, 1}, config);
  EXPECT_FLOAT_EQ(result.y[0], 1.0f);
  EXPECT_FLOAT_EQ(result.y[1], 3.0f);
  EXPECT_FLOAT_EQ(result.y[2], 0.0f);
  EXPECT_FLOAT_EQ(result.y[3], 0.0f);
}

TEST(Spmv, EdgeArrayHasZeroPreprocessing) {
  RmatOptions options;
  options.scale = 9;
  GraphHandle handle(GenerateRmat(options));
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  RunSpmv(handle, RandomVector(handle.num_vertices(), 2), config);
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

TEST(Spmv, EmptyGraphYieldsZeroVector) {
  EdgeList graph;
  graph.set_num_vertices(5);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const SpmvResult result = RunSpmv(handle, std::vector<float>(5, 1.0f), config);
  for (const float y : result.y) {
    EXPECT_FLOAT_EQ(y, 0.0f);
  }
}

}  // namespace
}  // namespace egraph
