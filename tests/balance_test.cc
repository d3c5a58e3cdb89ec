// Vertex- vs edge-balanced EdgeMap equivalence: the balance knob picks chunk
// boundaries, never semantics, so both strategies must produce identical
// per-round frontier *sets* and vertex state for every layout x direction x
// sync cell — including on a mega-hub star graph whose single adjacency
// list the edge-balanced push partitioner splits across chunks. Also covers
// the EdgeMapScratch reuse contract (clean state across rounds and runs)
// and empty-frontier calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/reference.h"
#include "src/engine/edge_map.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/gen/rmat.h"
#include "src/shard/edge_map_sharded.h"
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

// One EdgeMap round for the given cell.
Frontier Step(GraphHandle& handle, Layout layout, Direction direction, Frontier& frontier,
              ReachFunctor& func, EdgeMapOptions options) {
  switch (layout) {
    case Layout::kAdjacency:
      if (direction == Direction::kPull) {
        return EdgeMapPull(handle.in_csr(), frontier, func, options);
      }
      return EdgeMapPush(handle.out_csr(), frontier, func, options);
    case Layout::kCompressed:
      if (direction == Direction::kPull) {
        return EdgeMapPull(handle.compressed_in(), frontier, func, options);
      }
      return EdgeMapPush(handle.compressed_out(), frontier, func, options);
    case Layout::kEdgeArray:
      return EdgeMapEdgeArray(handle.edges(), frontier, func, options);
    case Layout::kGrid:
      return EdgeMapGrid(handle.grid(), frontier, func, options);
    case Layout::kSharded:
      // For sharded, the balance knob only reorders shard tasks (descending
      // edge mass vs natural order) — ownership forbids splitting a shard.
      if (direction == Direction::kPull) {
        return EdgeMapShardedPull(handle.in_csr(), handle.sharded(), frontier, func, options);
      }
      return EdgeMapShardedPush(handle.out_csr(), handle.sharded(), frontier, func, options);
  }
  return Frontier::None(handle.num_vertices());
}

struct BalanceCell {
  Layout layout;
  Direction direction;
  Sync sync;
};

// Runs the same traversal with vertex- and edge-balanced chunking in
// lock-step, comparing the frontier set and visited state after every round.
void ExpectBalanceEquivalence(const EdgeList& graph, const BalanceCell& cell,
                              const std::string& name) {
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = cell.layout;
  prepare.need_out = true;
  prepare.need_in = cell.layout == Layout::kAdjacency ||
                    cell.layout == Layout::kCompressed ||
                    cell.layout == Layout::kSharded;
  handle.Prepare(prepare);

  const VertexId n = handle.num_vertices();
  std::vector<uint8_t> visited_vertex(n, 0);
  std::vector<uint8_t> visited_edge(n, 0);
  visited_vertex[0] = 1;
  visited_edge[0] = 1;
  ReachFunctor func_vertex{visited_vertex.data()};
  ReachFunctor func_edge{visited_edge.data()};
  Frontier frontier_vertex = Frontier::Single(n, 0);
  Frontier frontier_edge = Frontier::Single(n, 0);

  EdgeMapOptions vertex_options;
  vertex_options.sync = cell.sync;
  vertex_options.balance = Balance::kVertex;
  vertex_options.locks = &handle.locks();
  EdgeMapOptions edge_options = vertex_options;
  edge_options.balance = Balance::kEdge;
  edge_options.scratch = &ExecutionContext::Default().edge_map_scratch();

  int round = 0;
  while (!frontier_vertex.Empty() || !frontier_edge.Empty()) {
    Frontier next_vertex = Step(handle, cell.layout, cell.direction, frontier_vertex,
                                func_vertex, vertex_options);
    Frontier next_edge =
        Step(handle, cell.layout, cell.direction, frontier_edge, func_edge, edge_options);
    EXPECT_EQ(SortedVertices(next_vertex), SortedVertices(next_edge))
        << name << " round " << round;
    EXPECT_EQ(visited_vertex, visited_edge) << name << " round " << round;
    frontier_vertex = std::move(next_vertex);
    frontier_edge = std::move(next_edge);
    ASSERT_LT(++round, 1000) << name << ": traversal did not terminate";
  }
}

std::vector<BalanceCell> AllCells(bool include_lockfree_grid) {
  std::vector<BalanceCell> cells;
  for (const Direction direction : {Direction::kPush, Direction::kPull}) {
    for (const Sync sync : {Sync::kAtomics, Sync::kLocks}) {
      cells.push_back({Layout::kAdjacency, direction, sync});
      cells.push_back({Layout::kCompressed, direction, sync});
      cells.push_back({Layout::kEdgeArray, direction, sync});
      cells.push_back({Layout::kGrid, direction, sync});
    }
    if (include_lockfree_grid) {
      cells.push_back({Layout::kGrid, direction, Sync::kLockFree});
    }
    // Sync is a no-op for the sharded backends (ownership replaces locks);
    // one lock-free cell per direction covers them.
    cells.push_back({Layout::kSharded, direction, Sync::kLockFree});
  }
  return cells;
}

std::string CellLabel(const BalanceCell& cell) {
  return std::string(LayoutName(cell.layout)) + "/" + DirectionName(cell.direction) + "/" +
         SyncName(cell.sync);
}

TEST(BalanceEquivalence, MegaHubStarAllCells) {
  const EdgeList star = MakeStar((1 << 12) + 5);
  for (const BalanceCell& cell : AllCells(/*include_lockfree_grid=*/true)) {
    ExpectBalanceEquivalence(star, cell, "star " + CellLabel(cell));
  }
}

TEST(BalanceEquivalence, RmatAllCells) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  for (const BalanceCell& cell : AllCells(/*include_lockfree_grid=*/true)) {
    ExpectBalanceEquivalence(graph, cell, "rmat " + CellLabel(cell));
  }
}

// The edge-balanced push partitioner splits the hub's adjacency list across
// chunks; the shared round bitmap must still emit every destination exactly
// once in the sparse output.
TEST(BalanceEquivalence, HubSplittingDeduplicates) {
  const VertexId leaves = (1 << 13) + 7;
  const EdgeList star = MakeStar(leaves);
  GraphHandle handle(star);
  PrepareConfig prepare;
  handle.Prepare(prepare);

  std::vector<uint8_t> visited(handle.num_vertices(), 0);
  visited[0] = 1;
  ReachFunctor func{visited.data()};
  Frontier frontier = Frontier::Single(handle.num_vertices(), 0);
  EdgeMapOptions options;
  options.scratch = &ExecutionContext::Default().edge_map_scratch();
  Frontier next = EdgeMapPush(handle.out_csr(), frontier, func, options);

  EXPECT_EQ(next.Count(), static_cast<int64_t>(leaves));
  const std::vector<VertexId> vertices = SortedVertices(next);
  ASSERT_EQ(vertices.size(), static_cast<size_t>(leaves));
  for (VertexId v = 1; v <= leaves; ++v) {
    ASSERT_EQ(vertices[v - 1], v);  // sorted + exact => no duplicates
  }
}

// Scratch state (round bitmap, worker buffers, prefix) must not leak
// between rounds or between whole runs sharing a GraphHandle.
TEST(EdgeMapScratchTest, ReuseAcrossRoundsAndRunsIsClean) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  RunConfig config;  // adjacency push, edge-balanced, handle scratch

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
  for (const Balance balance : {Balance::kVertex, Balance::kEdge}) {
    EdgeMapOptions options;
    options.balance = balance;
    options.locks = &handle.locks();
    options.scratch = &ExecutionContext::Default().edge_map_scratch();
    Frontier empty_push = Frontier::None(handle.num_vertices());
    EXPECT_TRUE(EdgeMapPush(handle.out_csr(), empty_push, func, options).Empty());
    Frontier empty_pull = Frontier::None(handle.num_vertices());
    EXPECT_TRUE(EdgeMapPull(handle.in_csr(), empty_pull, func, options).Empty());
    Frontier empty_array = Frontier::None(handle.num_vertices());
    options.scratch = nullptr;
    EXPECT_TRUE(EdgeMapEdgeArray(handle.edges(), empty_array, func, options).Empty());
    Frontier empty_grid = Frontier::None(handle.num_vertices());
    EXPECT_TRUE(EdgeMapGrid(handle.grid(), empty_grid, func, options).Empty());
  }
  for (const uint8_t v : visited) {
    ASSERT_EQ(v, 0);  // no functor application can have happened
  }
}

}  // namespace
}  // namespace egraph
