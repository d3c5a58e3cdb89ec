// Sharded execution substrate: AggregationBuffer edge cases (seal at exact
// capacity, empty buffers, concurrent enqueue-vs-drain — the TSan target),
// ShardedGraph construction invariants (boundary coverage, mass accounting,
// descending-mass task orders, AutoShards clamping, ShardOf == linear scan),
// and the sharded EdgeMap/scan backends against their plain counterparts:
// self-shard bypass keeps buffers empty, a mega-hub frontier straddling
// every shard boundary still deduplicates its output, and BFS / SSSP /
// PageRank / SpMV results match the plain layouts (bit-identically for the
// owner-partitioned pull gathers).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/reference.h"
#include "src/algos/spmv.h"
#include "src/algos/sssp.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/gen/rmat.h"
#include "src/shard/aggregation_buffer.h"
#include "src/shard/edge_map_sharded.h"
#include "src/shard/shard_metrics.h"
#include "src/shard/sharded_graph.h"
#include "src/util/atomics.h"

namespace egraph {
namespace {

// --- AggregationBuffer ------------------------------------------------------

TEST(AggregationBufferTest, SealsExactlyAtCapacity) {
  AggregationBuffer buffer(/*capacity=*/64);
  for (int i = 0; i < 64; ++i) {
    buffer.Enqueue(static_cast<VertexId>(i), static_cast<VertexId>(i + 1), 1.0f);
  }
  // The enqueue that hit capacity sealed the batch itself: the open batch is
  // empty and a later Flush has nothing left to seal.
  EXPECT_EQ(buffer.OpenSize(), 0u);
  EXPECT_TRUE(buffer.HasSealed());
  EXPECT_EQ(buffer.flush_batches(), 1);
  EXPECT_EQ(buffer.flushed(), 64);
  EXPECT_EQ(buffer.Flush(), 0u);
  EXPECT_EQ(buffer.flush_batches(), 1);  // empty flush seals nothing

  std::vector<VertexId> seen;
  const int64_t applied = buffer.Drain([&](const ShardUpdate& u) { seen.push_back(u.src); });
  EXPECT_EQ(applied, 64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(seen[static_cast<size_t>(i)], static_cast<VertexId>(i));  // enqueue order
  }
  EXPECT_FALSE(buffer.HasSealed());  // drain consumed the spill list
}

TEST(AggregationBufferTest, PartialFlushSealsRemainderInOrder) {
  AggregationBuffer buffer(/*capacity=*/64);
  for (int i = 0; i < 64 + 3; ++i) {
    buffer.Enqueue(static_cast<VertexId>(i), 0, 0.5f);
  }
  EXPECT_EQ(buffer.OpenSize(), 3u);
  EXPECT_EQ(buffer.Flush(), 3u);  // reports the partial occupancy it sealed at
  EXPECT_EQ(buffer.OpenSize(), 0u);
  EXPECT_EQ(buffer.flush_batches(), 2);
  EXPECT_EQ(buffer.flushed(), 67);

  VertexId expected = 0;
  buffer.Drain([&](const ShardUpdate& u) {
    ASSERT_EQ(u.src, expected);  // full batch then partial batch, enqueue order
    ++expected;
  });
  EXPECT_EQ(expected, static_cast<VertexId>(67));
}

TEST(AggregationBufferTest, EmptyBufferIsInert) {
  AggregationBuffer buffer;
  EXPECT_EQ(buffer.Flush(), 0u);
  EXPECT_FALSE(buffer.HasSealed());
  EXPECT_EQ(buffer.Drain([](const ShardUpdate&) { FAIL() << "nothing to apply"; }), 0);
  EXPECT_EQ(buffer.enqueued(), 0);
  EXPECT_EQ(buffer.flushed(), 0);
  EXPECT_EQ(buffer.flush_batches(), 0);
}

TEST(AggregationBufferTest, CapacityFloorIsOneCacheLine) {
  AggregationBuffer tiny(/*capacity=*/1);
  EXPECT_EQ(tiny.capacity(), kShardUpdatesPerCacheLine);
}

// The streaming contract: Drain may run while the producer is still
// enqueueing, and only ever sees sealed batches. Under TSan this exercises
// the spill-list handoff (producer Seal vs consumer swap).
TEST(AggregationBufferTest, ConcurrentEnqueueVersusDrain) {
  constexpr int kUpdates = 50000;
  AggregationBuffer buffer(/*capacity=*/128);
  std::atomic<bool> done{false};
  std::atomic<int64_t> applied{0};
  std::atomic<int64_t> checksum{0};

  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      applied.fetch_add(buffer.Drain([&](const ShardUpdate& u) {
        checksum.fetch_add(u.src, std::memory_order_relaxed);
      }), std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < kUpdates; ++i) {
    buffer.Enqueue(static_cast<VertexId>(i % 1024), 7, 1.0f);
  }
  buffer.Flush();
  done.store(true, std::memory_order_release);
  consumer.join();
  // Whatever the consumer missed after the final flush is still sealed.
  applied.fetch_add(buffer.Drain([&](const ShardUpdate& u) {
    checksum.fetch_add(u.src, std::memory_order_relaxed);
  }), std::memory_order_relaxed);

  int64_t expected_sum = 0;
  for (int i = 0; i < kUpdates; ++i) {
    expected_sum += i % 1024;
  }
  EXPECT_EQ(applied.load(), kUpdates);
  EXPECT_EQ(checksum.load(), expected_sum);
  EXPECT_EQ(buffer.enqueued(), kUpdates);
  EXPECT_EQ(buffer.flushed(), kUpdates);
}

// --- ShardedGraph -----------------------------------------------------------

EdgeList TestRmat(int scale) {
  RmatOptions options;
  options.scale = scale;
  return GenerateRmat(options);
}

TEST(ShardedGraphTest, BoundariesCoverVertexSpaceAndMassesAddUp) {
  const EdgeList graph = TestRmat(10);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.need_in = true;
  handle.Prepare(prepare);

  const ShardedGraph shards = ShardedGraph::Build(handle.out_csr(), &handle.in_csr(), 8);
  ASSERT_EQ(shards.num_shards(), 8);
  ASSERT_EQ(shards.boundaries().size(), 9u);
  EXPECT_EQ(shards.boundaries().front(), 0u);
  EXPECT_EQ(shards.boundaries().back(), graph.num_vertices());
  EXPECT_TRUE(std::is_sorted(shards.boundaries().begin(), shards.boundaries().end()));

  uint64_t out_mass = 0;
  uint64_t in_mass = 0;
  for (int s = 0; s < shards.num_shards(); ++s) {
    EXPECT_EQ(shards.ShardBegin(s), shards.boundaries()[static_cast<size_t>(s)]);
    EXPECT_EQ(shards.ShardEnd(s), shards.boundaries()[static_cast<size_t>(s) + 1]);
    out_mass += shards.ShardOutEdges(s);
    in_mass += shards.ShardInEdges(s);
  }
  EXPECT_EQ(out_mass, static_cast<uint64_t>(handle.out_csr().num_edges()));
  EXPECT_EQ(in_mass, static_cast<uint64_t>(handle.in_csr().num_edges()));
}

TEST(ShardedGraphTest, ShardOfMatchesLinearScan) {
  const EdgeList graph = TestRmat(9);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  handle.Prepare(prepare);
  const ShardedGraph shards = ShardedGraph::Build(handle.out_csr(), nullptr, 7);
  const std::vector<VertexId>& b = shards.boundaries();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    int linear = 0;
    while (linear + 1 < shards.num_shards() && b[static_cast<size_t>(linear) + 1] <= v) {
      ++linear;
    }
    ASSERT_EQ(shards.ShardOf(v), linear) << "vertex " << v;
    ASSERT_GE(v, shards.ShardBegin(shards.ShardOf(v)));
    ASSERT_LT(v, shards.ShardEnd(shards.ShardOf(v)));
  }
}

TEST(ShardedGraphTest, TaskOrdersAreDescendingMass) {
  const EdgeList graph = TestRmat(10);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.need_in = true;
  handle.Prepare(prepare);
  const ShardedGraph shards = ShardedGraph::Build(handle.out_csr(), &handle.in_csr(), 6);

  ASSERT_EQ(shards.out_order().size(), 6u);
  ASSERT_EQ(shards.in_order().size(), 6u);
  std::vector<int> sorted = shards.out_order();
  std::sort(sorted.begin(), sorted.end());
  for (int s = 0; s < 6; ++s) {
    ASSERT_EQ(sorted[static_cast<size_t>(s)], s);  // a permutation of [0, S)
  }
  for (size_t i = 1; i < shards.out_order().size(); ++i) {
    EXPECT_GE(shards.ShardOutEdges(shards.out_order()[i - 1]),
              shards.ShardOutEdges(shards.out_order()[i]));
  }
  for (size_t i = 1; i < shards.in_order().size(); ++i) {
    EXPECT_GE(shards.ShardInEdges(shards.in_order()[i - 1]),
              shards.ShardInEdges(shards.in_order()[i]));
  }
}

TEST(ShardedGraphTest, AutoShardsClampsToSaneRange) {
  EXPECT_EQ(ShardedGraph::AutoShards(0), 2);
  EXPECT_EQ(ShardedGraph::AutoShards(1), 2);
  EXPECT_EQ(ShardedGraph::AutoShards(8), 16);
  EXPECT_EQ(ShardedGraph::AutoShards(1000), 64);
}

// --- Sharded EdgeMap backends ----------------------------------------------

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

// A single shard owns everything: every update is the self-shard bypass, so
// the buffer mesh must stay untouched (the remote counter sees no traffic).
TEST(ShardedEdgeMapTest, SingleShardBypassesAllBuffers) {
  const EdgeList graph = TestRmat(9);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  handle.Prepare(prepare);
  const ShardedGraph shards = ShardedGraph::Build(handle.out_csr(), nullptr, 1);
  ASSERT_EQ(shards.num_shards(), 1);

  ShardMetrics& metrics = ShardMetrics::Get();
  const int64_t enqueued_before = metrics.enqueued.Total();
  const int64_t remote_before = metrics.remote_updates.Total();
  const int64_t local_before = metrics.local_updates.Total();

  VertexId source = 0;  // highest out-degree: guarantees the scatter applies
  for (VertexId v = 0; v < handle.num_vertices(); ++v) {
    if (handle.out_csr().Degree(v) > handle.out_csr().Degree(source)) {
      source = v;
    }
  }
  std::vector<uint8_t> visited(handle.num_vertices(), 0);
  visited[source] = 1;
  ReachFunctor func{visited.data()};
  Frontier frontier = Frontier::Single(handle.num_vertices(), source);
  EdgeMapOptions options;
  int rounds = 0;
  while (!frontier.Empty() && rounds < 1000) {
    frontier = EdgeMapShardedPush(handle.out_csr(), shards, frontier, func, options);
    ++rounds;
  }

  EXPECT_EQ(metrics.enqueued.Total(), enqueued_before);
  EXPECT_EQ(metrics.remote_updates.Total(), remote_before);
  EXPECT_GT(metrics.local_updates.Total(), local_before);
}

// A mega-hub frontier whose adjacency list straddles every shard boundary:
// the hub's scatter feeds all S shards in one round (local applies for its
// own shard, one buffer per remote shard), and the shared round bitmap must
// emit every destination exactly once across both phases.
TEST(ShardedEdgeMapTest, MegaHubStraddlesEveryShardBoundary) {
  const VertexId leaves = (1 << 13) + 7;
  EdgeList star(leaves + 1, {});
  star.Reserve(static_cast<EdgeIndex>(leaves));
  for (VertexId v = 1; v <= leaves; ++v) {
    star.AddEdge(0, v);
  }
  GraphHandle handle(star);
  PrepareConfig prepare;
  handle.Prepare(prepare);
  const int kShards = 8;
  const ShardedGraph shards = ShardedGraph::Build(handle.out_csr(), nullptr, kShards);

  ShardMetrics& metrics = ShardMetrics::Get();
  const int64_t remote_before = metrics.remote_updates.Total();
  const int64_t flushed_before = metrics.flushed.Total();

  std::vector<uint8_t> visited(handle.num_vertices(), 0);
  visited[0] = 1;
  ReachFunctor func{visited.data()};
  Frontier frontier = Frontier::Single(handle.num_vertices(), 0);
  EdgeMapOptions options;
  Frontier next = EdgeMapShardedPush(handle.out_csr(), shards, frontier, func, options);

  EXPECT_EQ(next.Count(), static_cast<int64_t>(leaves));
  next.EnsureSparse();
  std::vector<VertexId> vertices = next.Vertices();
  std::sort(vertices.begin(), vertices.end());
  ASSERT_EQ(vertices.size(), static_cast<size_t>(leaves));
  for (VertexId v = 1; v <= leaves; ++v) {
    ASSERT_EQ(vertices[v - 1], v);  // sorted + exact count => no duplicates
  }
  // The hub lives in shard 0; the other S-1 shards received their leaves
  // through buffers, and every enqueued update was sealed by FlushRow.
  const int64_t remote = metrics.remote_updates.Total() - remote_before;
  EXPECT_GT(remote, 0);
  EXPECT_EQ(metrics.flushed.Total() - flushed_before, remote);
  int shards_with_leaves = 0;
  for (int s = 0; s < kShards; ++s) {
    if (shards.ShardEnd(s) > shards.ShardBegin(s)) {
      ++shards_with_leaves;
    }
  }
  EXPECT_EQ(shards_with_leaves, kShards);  // the straddle really covers all shards
}

TEST(ShardedEdgeMapTest, EmptyFrontierDoesNothing) {
  const EdgeList graph = TestRmat(9);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.need_in = true;
  handle.Prepare(prepare);
  const ShardedGraph shards = ShardedGraph::Build(handle.out_csr(), &handle.in_csr(), 4);

  ShardMetrics& metrics = ShardMetrics::Get();
  const int64_t enqueued_before = metrics.enqueued.Total();

  std::vector<uint8_t> visited(handle.num_vertices(), 0);
  ReachFunctor func{visited.data()};
  EdgeMapOptions options;
  Frontier empty_push = Frontier::None(handle.num_vertices());
  EXPECT_TRUE(EdgeMapShardedPush(handle.out_csr(), shards, empty_push, func, options).Empty());
  Frontier empty_pull = Frontier::None(handle.num_vertices());
  EXPECT_TRUE(EdgeMapShardedPull(handle.in_csr(), shards, empty_pull, func).Empty());
  EXPECT_EQ(metrics.enqueued.Total(), enqueued_before);
  for (const uint8_t v : visited) {
    ASSERT_EQ(v, 0);
  }
}

// --- Sharded algorithms against the plain backends --------------------------

RunConfig ShardedConfig(Direction direction, int shards = 0) {
  RunConfig config;
  config.layout = Layout::kSharded;
  config.direction = direction;
  config.shards = shards;
  return config;
}

TEST(ShardedAlgoTest, BfsMatchesReferenceAllDirections) {
  const EdgeList graph = TestRmat(10);
  const std::vector<uint32_t> levels = RefBfsLevels(graph, 1);
  for (const Direction direction :
       {Direction::kPush, Direction::kPull, Direction::kPushPull}) {
    GraphHandle handle(graph);
    const BfsResult result = RunBfs(handle, 1, ShardedConfig(direction, /*shards=*/8));
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(result.parent[v] == kInvalidVertex, levels[v] == UINT32_MAX)
          << DirectionName(direction) << " vertex " << v;
    }
  }
}

TEST(ShardedAlgoTest, SsspMatchesPlainAdjacency) {
  EdgeList graph = TestRmat(10);
  graph.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0x5eed);
  GraphHandle plain_handle(graph);
  RunConfig plain;  // adjacency push
  const SsspResult expected = RunSssp(plain_handle, 1, plain);

  GraphHandle sharded_handle(graph);
  const SsspResult result =
      RunSssp(sharded_handle, 1, ShardedConfig(Direction::kPush, /*shards=*/8));
  ASSERT_EQ(result.dist.size(), expected.dist.size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    // Label-correcting SSSP converges to the same fixpoint regardless of
    // relaxation order; distances are sums of the same weights.
    if (std::isinf(expected.dist[v])) {
      EXPECT_TRUE(std::isinf(result.dist[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(result.dist[v], expected.dist[v], 1e-4) << "vertex " << v;
    }
  }
}

// The owner-partitioned pull gather visits in-neighbors in exactly the order
// ScanByDestination does, so the ranks must match bit for bit.
TEST(ShardedAlgoTest, PagerankPullIsBitIdenticalToPlainPull) {
  const EdgeList graph = TestRmat(10);
  PagerankOptions options;
  options.iterations = 10;

  GraphHandle plain_handle(graph);
  RunConfig plain;
  plain.direction = Direction::kPull;
  const PagerankResult expected = RunPagerank(plain_handle, options, plain);

  GraphHandle sharded_handle(graph);
  const PagerankResult result = RunPagerank(sharded_handle, options,
                                            ShardedConfig(Direction::kPull, /*shards=*/8));
  ASSERT_EQ(result.rank.size(), expected.rank.size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(result.rank[v], expected.rank[v]) << "vertex " << v;
  }
}

TEST(ShardedAlgoTest, PagerankPushMatchesPlainWithinFloatReorder) {
  const EdgeList graph = TestRmat(10);
  PagerankOptions options;
  options.iterations = 10;

  GraphHandle plain_handle(graph);
  RunConfig plain;
  plain.direction = Direction::kPull;  // deterministic baseline
  const PagerankResult expected = RunPagerank(plain_handle, options, plain);

  GraphHandle sharded_handle(graph);
  const PagerankResult result = RunPagerank(sharded_handle, options,
                                            ShardedConfig(Direction::kPush, /*shards=*/8));
  ASSERT_EQ(result.rank.size(), expected.rank.size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    // The two-phase scatter reorders float additions (local applies first,
    // drained remote mass second); 2e-4 on ranks summing to 1 is generous.
    EXPECT_NEAR(result.rank[v], expected.rank[v], 2e-4) << "vertex " << v;
  }
}

TEST(ShardedAlgoTest, SpmvPullIsBitIdenticalToPlainPull) {
  EdgeList graph = TestRmat(10);
  graph.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0xfeed);
  std::vector<float> x(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    x[v] = 1.0f + 0.001f * static_cast<float>(v % 997);
  }

  GraphHandle plain_handle(graph);
  RunConfig plain;
  plain.direction = Direction::kPull;
  const SpmvResult expected = RunSpmv(plain_handle, x, plain);

  GraphHandle sharded_handle(graph);
  const SpmvResult result =
      RunSpmv(sharded_handle, x, ShardedConfig(Direction::kPull, /*shards=*/8));
  ASSERT_EQ(result.y.size(), expected.y.size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(result.y[v], expected.y[v]) << "vertex " << v;
  }
}

TEST(ShardedAlgoTest, SpmvPushMatchesPlainWithinFloatReorder) {
  EdgeList graph = TestRmat(10);
  graph.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0xfeed);
  std::vector<float> x(graph.num_vertices(), 1.0f);

  GraphHandle plain_handle(graph);
  RunConfig plain;
  plain.direction = Direction::kPull;
  const SpmvResult expected = RunSpmv(plain_handle, x, plain);

  GraphHandle sharded_handle(graph);
  const SpmvResult result =
      RunSpmv(sharded_handle, x, ShardedConfig(Direction::kPush, /*shards=*/8));
  ASSERT_EQ(result.y.size(), expected.y.size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_NEAR(result.y[v], expected.y[v], 1e-3f * std::max(1.0f, expected.y[v]))
        << "vertex " << v;
  }
}

// GraphHandle integration: Prepare(kSharded) builds the partition once and
// honors the explicit shard count.
TEST(ShardedHandleTest, PrepareBuildsOnce) {
  const EdgeList graph = TestRmat(9);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = Layout::kSharded;
  prepare.num_shards = 5;
  handle.Prepare(prepare);
  ASSERT_TRUE(handle.has_sharded());
  EXPECT_EQ(handle.sharded().num_shards(), 5);
  const std::vector<VertexId> boundaries = handle.sharded().boundaries();

  handle.Prepare(prepare);  // idempotent: same partition object
  EXPECT_EQ(handle.sharded().boundaries(), boundaries);
}

}  // namespace
}  // namespace egraph
