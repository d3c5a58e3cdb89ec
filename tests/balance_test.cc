// Balance equivalence of the fixed-grain EdgeMap kernels: however a
// round's work is balanced across grains, every layout x direction x sync
// cell, driven round by round through EdgeMap (src/engine/dispatch.h) with
// a claim-once reach functor, must turn BFS level r into exactly level
// r + 1 of the sequential reference — as a sorted vertex list, so a
// duplicate or a missing vertex fails the round. The mega-hub star puts one
// adjacency list into a single fixed-grain chunk; R-MAT mixes hubs with
// long tails. Two hubs sharing every leaf, whose lists the edge array, the
// grid and the shards split across tasks, must emit each leaf once even
// when both of its claims succeed. Also covers the EdgeMapScratch reuse
// contract (clean state across rounds and runs) and empty-frontier calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/common.h"
#include "src/algos/reference.h"
#include "src/engine/dispatch.h"
#include "src/engine/execution_context.h"
#include "src/gen/rmat.h"
#include "src/util/atomics.h"

namespace egraph {
namespace {

struct ReachFunctor {
  uint8_t* visited;
  bool Update(VertexId /*s*/, VertexId d, float) {
    if (visited[d] == 0) {
      AtomicStore(&visited[d], uint8_t{1});
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId /*s*/, VertexId d, float) {
    return AtomicCas(&visited[d], uint8_t{0}, uint8_t{1});
  }
  bool Cond(VertexId d) const { return AtomicLoad(&visited[d]) == 0; }
};

// Star with one mega hub plus a chain so traversals take several rounds.
EdgeList MakeStar(VertexId leaves) {
  EdgeList star(leaves + 1, {});
  star.Reserve(static_cast<EdgeIndex>(leaves) + 64);
  for (VertexId v = 1; v <= leaves; ++v) {
    star.AddEdge(0, v);
  }
  for (VertexId v = 1; v <= 64 && v + 1 <= leaves; ++v) {
    star.AddEdge(v, v + 1);
  }
  return star;
}

std::vector<VertexId> SortedVertices(Frontier& frontier) {
  frontier.EnsureSparse();
  std::vector<VertexId> vertices = frontier.Vertices();
  std::sort(vertices.begin(), vertices.end());
  return vertices;
}

std::vector<RunConfig> AllCells() {
  std::vector<RunConfig> cells;
  for (const Layout layout : {Layout::kAdjacency, Layout::kCompressed, Layout::kEdgeArray,
                              Layout::kGrid, Layout::kSharded}) {
    for (const Direction direction :
         {Direction::kPush, Direction::kPull, Direction::kPushPull}) {
      for (const Sync sync : {Sync::kAtomics, Sync::kLocks, Sync::kLockFree}) {
        RunConfig config;
        config.layout = layout;
        config.direction = direction;
        config.sync = sync;
        cells.push_back(config);
      }
    }
  }
  return cells;
}

std::string CellLabel(const RunConfig& cell) {
  return std::string(LayoutName(cell.layout)) + "/" + DirectionName(cell.direction) + "/" +
         SyncName(cell.sync);
}

// Runs BFS-by-reachability from `source` one EdgeMap round at a time and
// checks every round's frontier against the reference levels.
void ExpectRoundsMatchBfsLevels(const EdgeList& graph, VertexId source, const RunConfig& cell,
                                const std::string& name) {
  const std::vector<uint32_t> levels = RefBfsLevels(graph, source);
  GraphHandle handle(graph);
  PrepareForRun(handle, cell);

  const VertexId n = handle.num_vertices();
  std::vector<uint8_t> visited(n, 0);
  visited[source] = 1;
  ReachFunctor func{visited.data()};
  EdgeMapScratch& scratch = ExecutionContext::Default().edge_map_scratch();
  Frontier frontier = Frontier::Single(n, source);
  for (uint32_t level = 1; !frontier.Empty(); ++level) {
    std::vector<VertexId> expected;
    for (VertexId v = 0; v < n; ++v) {
      if (levels[v] == level) {
        expected.push_back(v);
      }
    }
    Frontier next = EdgeMap(handle, frontier, func, cell, &scratch);
    ASSERT_EQ(SortedVertices(next), expected) << name << " level " << level;
    frontier = std::move(next);
  }
}

TEST(BalanceEquivalence, MegaHubStarAllCells) {
  const EdgeList star = MakeStar((1 << 12) + 5);
  for (const RunConfig& cell : AllCells()) {
    ExpectRoundsMatchBfsLevels(star, 0, cell, "star " + CellLabel(cell));
  }
}

TEST(BalanceEquivalence, RmatAllCells) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  for (const RunConfig& cell : AllCells()) {
    ExpectRoundsMatchBfsLevels(graph, 0, cell, "rmat " + CellLabel(cell));
  }
}

// Reports a change on each of a vertex's first two arrivals, so both claims
// on a vertex reached twice in one round succeed, and only the round's own
// dedup can keep it to one entry in the output.
struct TwoArrivalsFunctor {
  uint32_t* arrivals;
  bool Update(VertexId /*s*/, VertexId d, float) {
    const uint32_t seen = AtomicLoad(&arrivals[d]);
    AtomicStore(&arrivals[d], seen + 1);
    return seen < 2;
  }
  bool UpdateAtomic(VertexId /*s*/, VertexId d, float) {
    uint32_t seen = AtomicLoad(&arrivals[d]);
    while (!AtomicCas(&arrivals[d], seen, seen + 1)) {
      seen = AtomicLoad(&arrivals[d]);
    }
    return seen < 2;
  }
  bool Cond(VertexId d) const { return AtomicLoad(&arrivals[d]) < 2; }
};

// Vertex 0 reaches hubs 1 and 2, and each hub reaches every leaf. All of
// hub 1's edges are stored before hub 2's, so the edge array (4096-edge
// chunks), the grid (one cell per task) and the shards split each hub's
// list across tasks, and a leaf's two successful claims come from
// different chunks. The leaf round must list every leaf exactly once, and
// every leaf must have received both hubs' edges.
TEST(BalanceEquivalence, HubSplittingDeduplicates) {
  const VertexId leaves = (1 << 13) + 7;
  EdgeList graph(leaves + 3, {});
  graph.Reserve(2 * static_cast<EdgeIndex>(leaves) + 2);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  for (const VertexId hub : {1u, 2u}) {
    for (VertexId v = 3; v < leaves + 3; ++v) {
      graph.AddEdge(hub, v);
    }
  }
  std::vector<VertexId> leaf_ids(leaves);
  std::iota(leaf_ids.begin(), leaf_ids.end(), VertexId{3});

  EdgeMapScratch& scratch = ExecutionContext::Default().edge_map_scratch();
  for (const RunConfig& cell : AllCells()) {
    const std::string name = "two hubs " + CellLabel(cell);
    GraphHandle handle(graph);
    PrepareForRun(handle, cell);
    std::vector<uint32_t> arrivals(handle.num_vertices(), 0);
    TwoArrivalsFunctor func{arrivals.data()};
    Frontier source = Frontier::Single(handle.num_vertices(), 0);
    Frontier hubs = EdgeMap(handle, source, func, cell, &scratch);
    ASSERT_EQ(SortedVertices(hubs), (std::vector<VertexId>{1, 2})) << name;
    Frontier reached = EdgeMap(handle, hubs, func, cell, &scratch);
    EXPECT_EQ(SortedVertices(reached), leaf_ids) << name;
    for (VertexId v = 3; v < leaves + 3; ++v) {
      ASSERT_EQ(arrivals[v], 2u) << name << ": leaf " << v;
    }
  }
}

// Scratch state (round bitmap, worker buffers) must not leak between rounds
// or between whole runs sharing a GraphHandle.
TEST(EdgeMapScratchTest, ReuseAcrossRoundsAndRunsIsClean) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  RunConfig config;  // adjacency push, handle scratch

  const BfsResult first = RunBfs(handle, 0, config);
  const BfsResult second = RunBfs(handle, 0, config);
  ASSERT_EQ(first.parent.size(), second.parent.size());
  const auto levels = RefBfsLevels(graph, 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(first.parent[v] == kInvalidVertex, second.parent[v] == kInvalidVertex)
        << "vertex " << v;
    EXPECT_EQ(first.parent[v] == kInvalidVertex, levels[v] == UINT32_MAX)
        << "vertex " << v;
  }
}

TEST(BalanceEquivalence, EmptyFrontierYieldsEmptyResult) {
  const EdgeList star = MakeStar(1 << 10);
  GraphHandle handle(star);
  PrepareConfig prepare;
  prepare.need_in = true;
  handle.Prepare(prepare);
  prepare.layout = Layout::kGrid;
  handle.Prepare(prepare);

  std::vector<uint8_t> visited(handle.num_vertices(), 0);
  ReachFunctor func{visited.data()};
  EdgeMapOptions options;
  options.locks = &handle.locks();
  options.scratch = &ExecutionContext::Default().edge_map_scratch();
  Frontier empty_push = Frontier::None(handle.num_vertices());
  EXPECT_TRUE(EdgeMapPush(handle.out_csr(), empty_push, func, options).Empty());
  Frontier empty_pull = Frontier::None(handle.num_vertices());
  EXPECT_TRUE(EdgeMapPull(handle.in_csr(), empty_pull, func).Empty());
  for (const Layout layout : {Layout::kEdgeArray, Layout::kGrid}) {
    RunConfig config;
    config.layout = layout;
    Frontier empty_stored = Frontier::None(handle.num_vertices());
    EXPECT_TRUE(EdgeMap(handle, empty_stored, func, config).Empty()) << LayoutName(layout);
  }
  for (const uint8_t v : visited) {
    ASSERT_EQ(v, 0);  // no functor application can have happened
  }
}

}  // namespace
}  // namespace egraph
