// SSSP correctness: bucketed rounds must converge to Dijkstra's distances
// under every layout, on weighted and unweighted graphs, and to the same bits
// at every bucket width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "src/algos/reference.h"
#include "src/algos/sssp.h"
#include "src/engine/buckets.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"

namespace egraph {

// RunSssp at an explicit bucket width (infinity: one bucket). Defined in
// src/algos/sssp.cc and declared only here, so the width stays out of the
// public headers and out of RunConfig.
SsspResult RunSsspAtWidth(GraphHandle& handle, VertexId source, const RunConfig& config,
                          ExecutionContext& ctx, double width);

namespace {

ExecutionContext& SingleThread() {
  static ExecutionContext* ctx = [] {
    ExecutionContextOptions options;
    options.name = "sssp1";
    options.num_threads = 1;
    return new ExecutionContext(options);
  }();
  return *ctx;
}

// Each round's frontier size, from the run's trace.
std::vector<int64_t> FrontierSizes(const AlgoStats& stats) {
  std::vector<int64_t> sizes;
  for (const obs::IterationRecord& round : stats.trace.iterations) {
    sizes.push_back(round.frontier_size);
  }
  return sizes;
}

// 0->1->3 costs 10; 0->2->4->3 costs 3 and is found one round later; 3->5.
EdgeList Diamond() {
  EdgeList graph;
  graph.set_num_vertices(6);
  graph.AddWeightedEdge(0, 1, 1.0f);
  graph.AddWeightedEdge(1, 3, 9.0f);
  graph.AddWeightedEdge(0, 2, 1.0f);
  graph.AddWeightedEdge(2, 4, 1.0f);
  graph.AddWeightedEdge(4, 3, 1.0f);
  graph.AddWeightedEdge(3, 5, 1.0f);
  return graph;
}

// At width 1, the heavy edges file 2 and 3 beyond the open window: 2 later
// improves into the window (its overflow entry goes stale), while 3 (and 4
// behind it) wait until the window reopens past them.
EdgeList BeyondOpenWindow() {
  const float heavy = 2.0f * static_cast<float>(kOpenBuckets);
  EdgeList graph;
  graph.set_num_vertices(5);
  graph.AddWeightedEdge(0, 1, 1.0f);
  graph.AddWeightedEdge(1, 2, 1.0f);
  graph.AddWeightedEdge(0, 2, 1.5f * heavy);
  graph.AddWeightedEdge(0, 3, heavy);
  graph.AddWeightedEdge(3, 4, 1.0f);
  return graph;
}

void ExpectDistancesEqual(const std::vector<float>& got, const std::vector<float>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(got[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(got[v], expected[v], 1e-3f) << "vertex " << v;
    }
  }
}

class SsspLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(SsspLayoutTest, MatchesDijkstraOnWeightedRmat) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 3.0f, 17);
  const std::vector<float> expected = RefDijkstra(graph, 0);

  GraphHandle handle(graph);
  RunConfig config;
  config.layout = GetParam();
  const SsspResult result = RunSssp(handle, 0, config);
  ExpectDistancesEqual(result.dist, expected);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SsspLayoutTest,
                         ::testing::Values(Layout::kAdjacency, Layout::kCompressed,
                                           Layout::kEdgeArray, Layout::kGrid),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           std::string name = LayoutName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Regression: the compressed push kernel used to hardcode weight 1.0f, so
// SSSP on the compressed layout silently computed hop counts. With weights
// interleaved in the varint stream, the light two-hop path must beat the
// heavy one-hop edge — a hop-count traversal would report 1.0 for vertex 1.
TEST(Sssp, CompressedUsesStreamWeightsNotHopCounts) {
  EdgeList graph(4, {});
  graph.AddWeightedEdge(0, 1, 5.0f);  // one hop, heavy
  graph.AddWeightedEdge(0, 2, 1.0f);
  graph.AddWeightedEdge(2, 1, 1.0f);  // two hops, light
  graph.AddWeightedEdge(1, 3, 1.0f);
  for (const Direction direction :
       {Direction::kPush, Direction::kPull, Direction::kPushPull}) {
    GraphHandle handle(graph);
    RunConfig config;
    config.layout = Layout::kCompressed;
    config.direction = direction;
    const SsspResult result = RunSssp(handle, 0, config);
    EXPECT_FLOAT_EQ(result.dist[1], 2.0f) << DirectionName(direction);
    EXPECT_FLOAT_EQ(result.dist[2], 1.0f) << DirectionName(direction);
    EXPECT_FLOAT_EQ(result.dist[3], 3.0f) << DirectionName(direction);
  }
}

TEST(Sssp, PullMatchesPush) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.5f, 2.0f, 3);
  const std::vector<float> expected = RefDijkstra(graph, 0);

  GraphHandle handle(graph);
  RunConfig config;
  config.direction = Direction::kPull;
  ExpectDistancesEqual(RunSssp(handle, 0, config).dist, expected);
}

TEST(Sssp, UnweightedEqualsBfsLevels) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  const std::vector<uint32_t> levels = RefBfsLevels(graph, 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] == UINT32_MAX) {
      EXPECT_TRUE(std::isinf(result.dist[v]));
    } else {
      EXPECT_FLOAT_EQ(result.dist[v], static_cast<float>(levels[v]));
    }
  }
}

TEST(Sssp, RoadGraphLongPaths) {
  RoadOptions options;
  options.width = 32;
  options.height = 32;
  EdgeList graph = GenerateRoad(options);
  graph.AssignRandomWeights(1.0f, 2.0f, 5);
  const std::vector<float> expected = RefDijkstra(graph, 0);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  ExpectDistancesEqual(result.dist, expected);
  // High-diameter graph: SSSP needs many more iterations than a power law
  // (the paper's Table 6 contrast: 30.7 s on US-Road vs 2.8 s on RMAT-26).
  EXPECT_GT(result.stats.rounds(), 30);
}

TEST(Sssp, VertexCanRelaxMultipleTimes) {
  // Diamond with a shortcut that arrives later: 0->1->3 (cost 10) is found
  // a round before 0->2->4->3 (cost 3); vertex 3 must be relaxed again, and
  // pass the better distance on to 5.
  EdgeList graph = Diamond();
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  EXPECT_FLOAT_EQ(result.dist[3], 3.0f);
  EXPECT_FLOAT_EQ(result.dist[5], 4.0f);
}

TEST(DeltaStepping, MatchesDijkstraOnWeightedRmat) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 3.0f, 23);
  const std::vector<float> expected = RefDijkstra(graph, 0);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  ExpectDistancesEqual(result.dist, expected);
  EXPECT_GT(result.stats.rounds(), 0);
}

// Distances are the least fixpoint of the float relaxations, so every bucket
// width yields the same bits: narrow buckets that overflow the open window,
// the derived mean, wide ones, and a single bucket (frontier Bellman-Ford).
TEST(DeltaStepping, DeltaSweepAllCorrect) {
  RmatOptions rmat_options;
  rmat_options.scale = 8;
  EdgeList rmat = GenerateRmat(rmat_options);
  rmat.AssignRandomWeights(0.5f, 2.0f, 29);
  RoadOptions road_options;
  road_options.width = 32;
  road_options.height = 32;
  EdgeList road = GenerateRoad(road_options);
  road.AssignRandomWeights(1.0f, 10.0f, 37);
  const EdgeList diamond = Diamond();
  const EdgeList overflow = BeyondOpenWindow();
  const struct {
    const char* name;
    const EdgeList& graph;
    VertexId source;
  } cases[] = {{"rmat", rmat, 3}, {"road", road, 0}, {"diamond", diamond, 0},
               {"overflow", overflow, 0}};
  for (const auto& c : cases) {
    const std::vector<float> expected = RefDijkstra(c.graph, c.source);
    double sum = 0.0;
    for (const float w : c.graph.weights()) {
      sum += w;
    }
    const double mean = sum / static_cast<double>(c.graph.num_edges());
    GraphHandle handle(c.graph);
    const SsspResult one_bucket = RunSsspAtWidth(handle, c.source, RunConfig{}, SingleThread(),
                                                 std::numeric_limits<double>::infinity());
    ExpectDistancesEqual(one_bucket.dist, expected);
    for (const double width : {0.25, 1.0, mean, 4.0 * mean, 100.0}) {
      const SsspResult result =
          RunSsspAtWidth(handle, c.source, RunConfig{}, SingleThread(), width);
      EXPECT_EQ(result.dist, one_bucket.dist) << c.name << " at width " << width;
    }
  }
  // At width 100 the diamond is one bucket: vertex 3 is relaxed at cost 10,
  // improves to 3 inside that bucket, and is relaxed again.
  GraphHandle diamond_handle(diamond);
  const SsspResult wide = RunSsspAtWidth(diamond_handle, 0, RunConfig{}, SingleThread(), 100.0);
  const std::vector<int64_t> wide_sizes = FrontierSizes(wide.stats);
  EXPECT_EQ(std::accumulate(wide_sizes.begin(), wide_sizes.end(), int64_t{0}), 8);
}

TEST(DeltaStepping, UnweightedDegeneratesToBfsLevels) {
  RmatOptions options;
  options.scale = 8;
  const EdgeList graph = GenerateRmat(options);
  const std::vector<uint32_t> levels = RefBfsLevels(graph, 0);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  std::vector<int64_t> level_sizes;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] == UINT32_MAX) {
      EXPECT_TRUE(std::isinf(result.dist[v]));
    } else {
      EXPECT_FLOAT_EQ(result.dist[v], static_cast<float>(levels[v]));
      level_sizes.resize(std::max<size_t>(level_sizes.size(), levels[v] + 1));
      ++level_sizes[levels[v]];
    }
  }
  // Unit weights: every bucket is one BFS level, relaxed in one round.
  EXPECT_EQ(FrontierSizes(result.stats), level_sizes);
}

TEST(DeltaStepping, RoadGraphLongPaths) {
  RoadOptions options;
  options.width = 24;
  options.height = 24;
  EdgeList graph = GenerateRoad(options);
  graph.AssignRandomWeights(1.0f, 2.0f, 31);
  const std::vector<float> expected = RefDijkstra(graph, 0);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  ExpectDistancesEqual(result.dist, expected);
}

// Work efficiency without timing: on a road lattice, bucketed rounds relax
// each reachable vertex about once, where a single bucket (frontier
// Bellman-Ford) relaxes it once per improvement.
TEST(Sssp, BucketedRoundsRelaxEachVertexAboutOnce) {
  RoadOptions options;
  options.width = 128;
  options.height = 128;
  EdgeList graph = GenerateRoad(options);
  graph.AssignRandomWeights(1.0f, 10.0f, 41);
  GraphHandle handle(graph);
  const SsspResult bucketed = RunSssp(handle, 0, RunConfig{}, SingleThread());
  const int64_t reachable = std::count_if(bucketed.dist.begin(), bucketed.dist.end(),
                                          [](float d) { return !std::isinf(d); });
  const auto relaxed = [](const SsspResult& result) {
    const std::vector<int64_t> sizes = FrontierSizes(result.stats);
    return std::accumulate(sizes.begin(), sizes.end(), int64_t{0});
  };
  EXPECT_LE(static_cast<double>(relaxed(bucketed)), 1.25 * static_cast<double>(reachable));
  const SsspResult one_bucket = RunSsspAtWidth(handle, 0, RunConfig{}, SingleThread(),
                                               std::numeric_limits<double>::infinity());
  EXPECT_EQ(one_bucket.dist, bucketed.dist);
  EXPECT_GT(static_cast<double>(relaxed(one_bucket)), 2.0 * static_cast<double>(reachable));
}

// One round discovering tens of thousands of vertices files them from
// several workers' lists, and taking a bucket merges them; the distances
// match Dijkstra and the one-thread run bit for bit.
TEST(Sssp, WideRoundsMatchAcrossPoolWidths) {
  constexpr VertexId kLeaves = 20000;
  constexpr VertexId kHubs = 100;
  EdgeList graph;
  graph.set_num_vertices(1 + kLeaves + kHubs);
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    graph.AddEdge(0, leaf);
    graph.AddEdge(leaf, 1 + kLeaves + leaf % kHubs);
  }
  graph.AssignRandomWeights(0.5f, 4.0f, 43);
  ExecutionContextOptions options;
  options.name = "sssp4";
  options.num_threads = 4;
  ExecutionContext wide(options);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{}, wide);
  ExpectDistancesEqual(result.dist, RefDijkstra(graph, 0));
  EXPECT_EQ(result.dist, RunSssp(handle, 0, RunConfig{}, SingleThread()).dist);
}

// A negative edge can improve a vertex into a bucket already taken, so
// negative weights keep one bucket: 2 improves to 0.5 after its bucket at 1
// is done, and 3 must still see it.
TEST(Sssp, NegativeWeightsKeepOneBucket) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddWeightedEdge(0, 1, 5.0f);
  graph.AddWeightedEdge(0, 2, 1.0f);
  graph.AddWeightedEdge(1, 2, -4.5f);
  graph.AddWeightedEdge(2, 3, 1.0f);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{}, SingleThread());
  EXPECT_FLOAT_EQ(result.dist[2], 0.5f);
  EXPECT_FLOAT_EQ(result.dist[3], 1.5f);
}

TEST(Sssp, UnreachableStaysInfinite) {
  EdgeList graph;
  graph.set_num_vertices(3);
  graph.AddWeightedEdge(0, 1, 1.0f);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  EXPECT_TRUE(std::isinf(result.dist[2]));
}

}  // namespace
}  // namespace egraph
