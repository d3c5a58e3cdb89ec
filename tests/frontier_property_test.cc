// Randomized property tests for the Frontier vertex-subset abstraction:
//   - sparse <-> dense conversions preserve the active set exactly, in both
//     directions, across random subsets of varying density;
//   - EdgeMapPush's round-bitmap dedup never emits a duplicate vertex,
//     even when many active sources relax the same destination and the
//     graph itself contains duplicate edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "src/engine/edge_map.h"
#include "src/engine/frontier.h"
#include "src/engine/graph_handle.h"
#include "src/graph/edge_list.h"
#include "src/util/bitmap.h"

namespace egraph {
namespace {

std::vector<VertexId> RandomSubset(VertexId n, double density, uint32_t seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution keep(density);
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < n; ++v) {
    if (keep(rng)) {
      subset.push_back(v);
    }
  }
  return subset;
}

std::vector<VertexId> SortedVertices(Frontier& frontier) {
  frontier.EnsureSparse();
  std::vector<VertexId> vertices = frontier.Vertices();
  std::sort(vertices.begin(), vertices.end());
  return vertices;
}

TEST(FrontierPropertyTest, SparseToDenseRoundTripPreservesActiveSet) {
  const VertexId n = 4096;
  for (const double density : {0.001, 0.05, 0.5, 0.95}) {
    for (uint32_t seed = 1; seed <= 5; ++seed) {
      const std::vector<VertexId> subset = RandomSubset(n, density, seed);
      Frontier frontier = Frontier::FromVector(n, subset);
      EXPECT_EQ(frontier.Count(), static_cast<int64_t>(subset.size()));

      frontier.EnsureDense();
      EXPECT_TRUE(frontier.has_dense());
      EXPECT_TRUE(frontier.has_sparse());
      EXPECT_EQ(frontier.Count(), static_cast<int64_t>(subset.size()))
          << "conversion must not change the count";
      std::set<VertexId> expected(subset.begin(), subset.end());
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(frontier.Contains(v), expected.count(v) != 0)
            << "density " << density << " seed " << seed << " vertex " << v;
      }

      // Rebuild from the dense side and come back to sparse.
      Bitmap bitmap(n);
      for (const VertexId v : subset) {
        bitmap.Set(v);
      }
      Frontier dense =
          Frontier::FromBitmap(n, std::move(bitmap), static_cast<int64_t>(subset.size()));
      EXPECT_EQ(SortedVertices(dense), subset)
          << "density " << density << " seed " << seed;
    }
  }
}

TEST(FrontierPropertyTest, RepeatedConversionsAreStable) {
  const VertexId n = 1 << 14;
  const std::vector<VertexId> subset = RandomSubset(n, 0.1, /*seed=*/99);
  Frontier frontier = Frontier::FromVector(n, subset);
  for (int round = 0; round < 3; ++round) {
    frontier.EnsureDense();
    frontier.EnsureSparse();
  }
  EXPECT_EQ(SortedVertices(frontier), subset);
  EXPECT_EQ(frontier.Count(), static_cast<int64_t>(subset.size()));
}

// Functor whose updates always succeed: every stored edge out of the active
// set tries to enqueue its destination, so only the round bitmap stands
// between the engine and duplicate frontier entries.
struct AlwaysRelaxFunctor {
  bool Update(VertexId, VertexId, float) { return true; }
  bool UpdateAtomic(VertexId, VertexId, float) { return true; }
  bool Cond(VertexId) const { return true; }
};

class PushDedupTest : public ::testing::TestWithParam<Sync> {};

TEST_P(PushDedupTest, RoundBitmapNeverEmitsDuplicates) {
  const VertexId n = 2000;
  std::mt19937 rng(0xf0f0);
  std::uniform_int_distribution<VertexId> vertex(0, n - 1);
  EdgeList graph;
  graph.set_num_vertices(n);
  for (int i = 0; i < 10000; ++i) {
    const VertexId src = vertex(rng);
    const VertexId dst = vertex(rng);
    graph.AddEdge(src, dst);
    if (i % 3 == 0) {
      graph.AddEdge(src, dst);  // duplicate edges on purpose
    }
  }
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = Layout::kAdjacency;
  prepare.need_out = true;
  handle.Prepare(prepare);
  const Csr& out = handle.out_csr();

  for (uint32_t seed = 1; seed <= 8; ++seed) {
    const std::vector<VertexId> active = RandomSubset(n, 0.02 * seed, seed);
    std::set<VertexId> expected;
    for (const VertexId src : active) {
      for (const VertexId dst : out.Neighbors(src)) {
        expected.insert(dst);
      }
    }

    Frontier frontier = Frontier::FromVector(n, active);
    AlwaysRelaxFunctor func;
    EdgeMapOptions options;
    options.sync = GetParam();
    options.locks = &handle.locks();
    Frontier next = EdgeMapPush(out, frontier, func, options);

    std::vector<VertexId> produced = SortedVertices(next);
    ASSERT_EQ(std::adjacent_find(produced.begin(), produced.end()), produced.end())
        << "duplicate vertex in next frontier, seed " << seed;
    EXPECT_EQ(produced, std::vector<VertexId>(expected.begin(), expected.end()))
        << "seed " << seed;
    EXPECT_EQ(next.Count(), static_cast<int64_t>(expected.size())) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSyncModes, PushDedupTest,
                         ::testing::Values(Sync::kAtomics, Sync::kLocks),
                         [](const ::testing::TestParamInfo<Sync>& info) {
                           return info.param == Sync::kAtomics ? "atomics" : "locks";
                         });

}  // namespace
}  // namespace egraph
