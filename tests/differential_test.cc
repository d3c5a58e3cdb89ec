// Differential sweep across the full EdgeMap configuration matrix:
//   layout {adjacency, compressed, edge-array, grid, sharded}
//     x direction {push, pull, push-pull}
//     x sync {atomics, locks}
//     x edge order {vertex, edge}
// = 60 cells, each run for BFS, WCC, SSSP and Pagerank on four seeded graph
// families (power-law R-MAT, high-diameter road lattice, uniform
// Erdős–Rényi, and a mega-hub star whose one adjacency list fills a whole
// fixed-grain chunk) and checked against the sequential references. The
// edge order is how each input stores its edges (tests/edge_order.h):
// sorted by source vertex, or shuffled, which moves edges between the
// kernels' fixed grains; the results must not change.
//
// Every cell executes — none of the 60 combinations is rejected by the
// engine. Two parameters are no-ops by design and are exercised anyway:
//   - direction is ignored by edge-array and grid EdgeMaps (always a full
//     edge scan in the stored order),
//   - sync is ignored by adjacency/compressed pull (one writer per
//     destination) and by the sharded backends entirely (shard ownership
//     makes every apply exclusive).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/reference.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/execution_context.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "tests/edge_order.h"

namespace egraph {
namespace {

struct TestGraph {
  std::string name;
  EdgeList edges;             // unweighted (BFS / WCC / Pagerank)
  EdgeList weighted;          // same topology with random weights (SSSP)
  VertexId source = 0;        // traversal source with non-trivial reach
  std::vector<uint32_t> ref_bfs_levels;
  std::vector<VertexId> ref_wcc_labels;
  std::vector<float> ref_sssp_dist;
  std::vector<float> ref_pagerank;
};

constexpr int kPagerankIterations = 10;
constexpr float kPagerankDamping = 0.85f;

VertexId BestSource(const EdgeList& graph) {
  std::vector<int64_t> degree(graph.num_vertices(), 0);
  for (const Edge& e : graph.edges()) {
    ++degree[e.src];
  }
  VertexId best = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (degree[v] > degree[best]) {
      best = v;
    }
  }
  return best;
}

// The references are solved on the generated edges; the stored lists are
// then put in `order`, weights travelling with their edges.
TestGraph MakeTestGraph(std::string name, EdgeList edges, EdgeOrder order) {
  TestGraph g;
  g.name = std::move(name);
  g.edges = std::move(edges);
  g.weighted = g.edges;
  g.weighted.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0x5eed);
  g.source = BestSource(g.edges);
  g.ref_bfs_levels = RefBfsLevels(g.edges, g.source);
  g.ref_wcc_labels = RefWccLabels(g.edges);
  g.ref_sssp_dist = RefDijkstra(g.weighted, g.source);
  g.ref_pagerank = RefPagerank(g.edges, kPagerankIterations, kPagerankDamping);
  g.edges = Reordered(g.edges, order);
  g.weighted = Reordered(g.weighted, order);
  return g;
}

std::vector<TestGraph>* BuildGraphs(EdgeOrder order) {
  auto* graphs = new std::vector<TestGraph>();

  RmatOptions rmat;
  rmat.scale = 9;
  graphs->push_back(MakeTestGraph("rmat", GenerateRmat(rmat), order));

  RoadOptions road;
  road.width = 24;
  road.height = 24;
  road.seed = 7;
  graphs->push_back(MakeTestGraph("road", GenerateRoad(road), order));

  ErdosRenyiOptions er;
  er.num_vertices = 1 << 10;
  er.num_edges = 1 << 13;
  er.seed = 13;
  graphs->push_back(MakeTestGraph("uniform", GenerateErdosRenyi(er), order));

  // Star with a mega hub: one vertex holds ~all edges, so any fixed vertex
  // grain puts the whole graph into one chunk. A short chain off the first
  // leaves keeps BFS multi-round.
  {
    const VertexId leaves = (1 << 12) + 3;
    EdgeList star(leaves + 1, {});
    star.Reserve(static_cast<EdgeIndex>(leaves) + 64);
    for (VertexId v = 1; v <= leaves; ++v) {
      star.AddEdge(0, v);
    }
    for (VertexId v = 1; v <= 64; ++v) {
      star.AddEdge(v, v + 1);
    }
    graphs->push_back(MakeTestGraph("star", std::move(star), order));
  }
  return graphs;
}

// Validates a parallel BFS parent tree against the reference levels:
// reachability matches exactly, every tree edge is a real edge, and every
// tree edge descends exactly one level (parent arrays themselves are
// nondeterministic across configurations).
void ExpectBfsAgreesWithReference(const TestGraph& g, const std::vector<VertexId>& parent,
                                  const std::string& cell) {
  const std::vector<uint32_t>& levels = g.ref_bfs_levels;
  ASSERT_EQ(parent.size(), g.edges.num_vertices()) << cell;
  std::set<std::pair<VertexId, VertexId>> edge_set;
  for (const Edge& e : g.edges.edges()) {
    edge_set.insert({e.src, e.dst});
  }
  for (VertexId v = 0; v < g.edges.num_vertices(); ++v) {
    if (levels[v] == UINT32_MAX) {
      EXPECT_EQ(parent[v], kInvalidVertex) << cell << ": unreachable vertex " << v;
      continue;
    }
    ASSERT_NE(parent[v], kInvalidVertex) << cell << ": reachable vertex " << v;
    if (v == g.source) {
      EXPECT_EQ(parent[v], v) << cell;
      continue;
    }
    ASSERT_TRUE(edge_set.count({parent[v], v}))
        << cell << ": tree edge " << parent[v] << "->" << v << " not in graph";
    EXPECT_EQ(levels[v], levels[parent[v]] + 1) << cell << ": vertex " << v;
  }
}

using Cell = std::tuple<Layout, Direction, Sync, EdgeOrder>;

class DifferentialTest : public ::testing::TestWithParam<Cell> {
 protected:
  // Graphs (and their reference solutions) of the cell's edge order, built
  // on first use and shared by every cell of that order; intentionally
  // leaked so TearDown order doesn't matter.
  static const std::vector<TestGraph>& Graphs() {
    static std::vector<TestGraph>* by_order[2] = {nullptr, nullptr};
    const EdgeOrder order = std::get<3>(GetParam());
    std::vector<TestGraph>*& graphs = by_order[static_cast<int>(order)];
    if (graphs == nullptr) {
      graphs = BuildGraphs(order);
    }
    return *graphs;
  }

  static RunConfig Config() {
    RunConfig config;
    std::tie(config.layout, config.direction, config.sync, std::ignore) = GetParam();
    return config;
  }

  static std::string CellName() {
    const RunConfig c = Config();
    return std::string(LayoutName(c.layout)) + "/" + DirectionName(c.direction) + "/" +
           SyncName(c.sync) + "/" + EdgeOrderName(std::get<3>(GetParam()));
  }
};

ExecutionContextOptions PoolOptions(int threads) {
  ExecutionContextOptions options;
  options.name = "pool" + std::to_string(threads);
  options.num_threads = threads;
  return options;
}

// The contexts each reference check runs its cell on: the default one (the
// process-wide pool, EG_THREADS wide, whose calls run alone and update
// plainly at EG_THREADS=1) and a 2-thread one, whose calls keep the atomic
// and lock paths at every EG_THREADS.
std::vector<ExecutionContext*> ReferenceContexts() {
  static ExecutionContext* two = new ExecutionContext(PoolOptions(2));
  return {&ExecutionContext::Default(), two};
}

TEST_P(DifferentialTest, BfsMatchesReference) {
  for (ExecutionContext* ctx : ReferenceContexts()) {
    for (const TestGraph& g : Graphs()) {
      GraphHandle handle(g.edges);
      const BfsResult result = RunBfs(handle, g.source, Config(), *ctx);
      ExpectBfsAgreesWithReference(g, result.parent,
                                   CellName() + " on " + g.name + " in " + ctx->name());
    }
  }
}

TEST_P(DifferentialTest, WccMatchesReference) {
  RunConfig config = Config();
  for (ExecutionContext* ctx : ReferenceContexts()) {
    for (const TestGraph& g : Graphs()) {
      // Adjacency-list WCC (plain or compressed) propagates labels along
      // stored edges only, so it runs on the symmetrized graph (paper
      // section 8); edge-array and grid relax both endpoints of each stored
      // edge and need no symmetrization.
      const bool adjacency_like = config.layout == Layout::kAdjacency ||
                                  config.layout == Layout::kCompressed ||
                                  config.layout == Layout::kSharded;
      GraphHandle handle(adjacency_like ? g.edges.MakeUndirected() : g.edges);
      config.symmetric_input = adjacency_like;
      const WccResult result = RunWcc(handle, config, *ctx);
      EXPECT_EQ(result.label, g.ref_wcc_labels)
          << CellName() << " on " << g.name << " in " << ctx->name();
    }
  }
}

TEST_P(DifferentialTest, SsspMatchesReference) {
  for (ExecutionContext* ctx : ReferenceContexts()) {
    for (const TestGraph& g : Graphs()) {
      GraphHandle handle(g.weighted);
      const SsspResult result = RunSssp(handle, g.source, Config(), *ctx);
      ASSERT_EQ(result.dist.size(), g.ref_sssp_dist.size());
      const std::string cell = CellName() + " on " + g.name + " in " + ctx->name();
      for (VertexId v = 0; v < g.weighted.num_vertices(); ++v) {
        const float expected = g.ref_sssp_dist[v];
        if (std::isinf(expected)) {
          EXPECT_TRUE(std::isinf(result.dist[v])) << cell << ": vertex " << v;
        } else {
          EXPECT_NEAR(result.dist[v], expected, 1e-3) << cell << ": vertex " << v;
        }
      }
    }
  }
}

TEST_P(DifferentialTest, PagerankMatchesReference) {
  PagerankOptions options;
  options.iterations = kPagerankIterations;
  options.damping = kPagerankDamping;
  for (ExecutionContext* ctx : ReferenceContexts()) {
    for (const TestGraph& g : Graphs()) {
      GraphHandle handle(g.edges);
      const PagerankResult result = RunPagerank(handle, options, Config(), *ctx);
      ASSERT_EQ(result.rank.size(), g.ref_pagerank.size());
      const std::string cell = CellName() + " on " + g.name + " in " + ctx->name();
      for (VertexId v = 0; v < g.edges.num_vertices(); ++v) {
        // Parallel float summation reorders additions; 2e-4 absolute on
        // ranks that sum to 1 is far tighter than any real divergence.
        EXPECT_NEAR(result.rank[v], g.ref_pagerank[v], 2e-4) << cell << ": vertex " << v;
      }
    }
  }
}

// Deterministic kernels must not depend on the pool width: BFS
// reachability, SSSP distances (the least fixpoint of monotone float
// relaxations), WCC labels, and PageRank where it gathers (pull on a
// vertex-centric layout: fixed per-destination order plus the
// deterministic dangling reduction) are bit-identical on 1 and 4 threads.
// The 1-thread calls run alone and update plainly; the 4-thread ones take
// the atomic and lock paths, so this also compares those two paths.
// Push PageRank is exempt: its atomic float adds land in schedule order.
TEST_P(DifferentialTest, ResultsIdenticalAcrossPoolWidths) {
  static ExecutionContext* narrow = new ExecutionContext(PoolOptions(1));
  static ExecutionContext* wide = new ExecutionContext(PoolOptions(4));
  RunConfig config = Config();
  PagerankOptions pagerank;
  pagerank.iterations = kPagerankIterations;
  pagerank.damping = kPagerankDamping;
  const bool gathers = config.direction == Direction::kPull && IsVertexCentric(config.layout);
  for (const TestGraph& g : Graphs()) {
    const std::string cell = CellName() + " on " + g.name;
    {
      GraphHandle handle(g.edges);
      const BfsResult a = RunBfs(handle, g.source, config, *narrow);
      const BfsResult b = RunBfs(handle, g.source, config, *wide);
      for (VertexId v = 0; v < g.edges.num_vertices(); ++v) {
        ASSERT_EQ(a.parent[v] == kInvalidVertex, b.parent[v] == kInvalidVertex)
            << cell << ": bfs reach of vertex " << v;
      }
    }
    {
      GraphHandle handle(g.weighted);
      const SsspResult a = RunSssp(handle, g.source, config, *narrow);
      const SsspResult b = RunSssp(handle, g.source, config, *wide);
      ASSERT_EQ(a.dist, b.dist) << cell << ": sssp";
    }
    {
      RunConfig wcc = config;
      wcc.symmetric_input = IsVertexCentric(config.layout);
      GraphHandle handle(wcc.symmetric_input ? g.edges.MakeUndirected() : g.edges);
      ASSERT_EQ(RunWcc(handle, wcc, *narrow).label, RunWcc(handle, wcc, *wide).label)
          << cell << ": wcc";
    }
    if (gathers) {
      GraphHandle handle(g.edges);
      ASSERT_EQ(RunPagerank(handle, pagerank, config, *narrow).rank,
                RunPagerank(handle, pagerank, config, *wide).rank)
          << cell << ": pagerank";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, DifferentialTest,
    ::testing::Combine(::testing::Values(Layout::kAdjacency, Layout::kCompressed,
                                         Layout::kEdgeArray, Layout::kGrid,
                                         Layout::kSharded),
                       ::testing::Values(Direction::kPush, Direction::kPull,
                                         Direction::kPushPull),
                       ::testing::Values(Sync::kAtomics, Sync::kLocks),
                       ::testing::Values(EdgeOrder::kVertex, EdgeOrder::kEdge)),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = std::string(LayoutName(std::get<0>(info.param))) + "_" +
                         DirectionName(std::get<1>(info.param)) + "_" +
                         SyncName(std::get<2>(info.param)) + "_" +
                         EdgeOrderName(std::get<3>(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace egraph
