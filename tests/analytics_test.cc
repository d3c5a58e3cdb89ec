// Analytics tests: clustering coefficient and diameter estimation, plus the
// compressed-CSR EdgeMap integration.
#include <gtest/gtest.h>

#include <set>

#include "src/algos/analytics.h"
#include "src/algos/reference.h"
#include "src/engine/edge_map.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr_builder.h"
#include "src/util/atomics.h"

namespace egraph {
namespace {

TEST(Clustering, CliqueIsOne) {
  EdgeList graph;
  graph.set_num_vertices(5);
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) {
      graph.AddEdge(a, b);
    }
  }
  EXPECT_NEAR(GlobalClusteringCoefficient(graph), 1.0, 1e-12);
}

TEST(Clustering, TreeIsZero) {
  EdgeList graph;
  graph.set_num_vertices(7);
  for (VertexId v = 1; v < 7; ++v) {
    graph.AddEdge((v - 1) / 2, v);  // binary tree
  }
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(graph), 0.0);
}

TEST(Clustering, TriangleWithTail) {
  // Triangle 0-1-2 plus tail 2-3: 1 triangle; wedges: deg(0)=2, deg(1)=2,
  // deg(2)=3, deg(3)=1 -> 1 + 1 + 3 + 0 = 5 wedges -> C = 3/5.
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  graph.AddEdge(2, 3);
  EXPECT_NEAR(GlobalClusteringCoefficient(graph), 3.0 / 5.0, 1e-12);
}

TEST(Clustering, EmptyGraphIsZero) {
  EdgeList graph;
  graph.set_num_vertices(3);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(graph), 0.0);
}

TEST(Diameter, ChainIsExact) {
  EdgeList graph;
  graph.set_num_vertices(20);
  for (VertexId v = 0; v + 1 < 20; ++v) {
    graph.AddEdge(v, v + 1);
  }
  // Double sweep from the middle still finds the chain ends.
  EXPECT_EQ(EstimateDiameter(graph, /*sweeps=*/2, /*seed=*/10), 19u);
}

TEST(Diameter, RoadProxyIsHighAndPowerLawIsLow) {
  RoadOptions road;
  road.width = 48;
  road.height = 48;
  const uint32_t road_diameter = EstimateDiameter(GenerateRoad(road), 2, 0);
  RmatOptions rmat;
  rmat.scale = 11;  // ~2k vertices, 32k edges
  const uint32_t rmat_diameter = EstimateDiameter(GenerateRmat(rmat), 2, 0);
  EXPECT_GT(road_diameter, 48u);
  EXPECT_LT(rmat_diameter, 15u);
  EXPECT_GT(road_diameter, 3 * rmat_diameter);
}

TEST(Diameter, EmptyAndSingleton) {
  EdgeList empty;
  EXPECT_EQ(EstimateDiameter(empty), 0u);
  EdgeList singleton;
  singleton.set_num_vertices(1);
  EXPECT_EQ(EstimateDiameter(singleton), 0u);
}

// --- Compressed-CSR EdgeMap -------------------------------------------------

struct ReachFunctor {
  uint8_t* visited;
  bool Update(VertexId, VertexId d, float) {
    if (visited[d] == 0) {
      AtomicStore(&visited[d], uint8_t{1});
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId, VertexId d, float) {
    return AtomicCas(&visited[d], uint8_t{0}, uint8_t{1});
  }
  bool Cond(VertexId d) const { return AtomicLoad(&visited[d]) == 0; }
};

TEST(EdgeMapCompressed, BfsReachabilityMatchesPlainCsr) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  const CompressedCsr compressed = CompressedCsr::Build(graph, EdgeDirection::kOut);
  StripedLocks locks;

  const auto reach = [&](auto&& step) {
    std::vector<uint8_t> visited(graph.num_vertices(), 0);
    visited[0] = 1;
    ReachFunctor func{visited.data()};
    Frontier frontier = Frontier::Single(graph.num_vertices(), 0);
    while (!frontier.Empty()) {
      frontier = step(frontier, func);
    }
    std::set<VertexId> reached;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (visited[v]) {
        reached.insert(v);
      }
    }
    return reached;
  };

  EdgeMapOptions atomics;
  atomics.locks = &locks;
  EdgeMapOptions with_locks = atomics;
  with_locks.sync = Sync::kLocks;
  const auto plain = reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapPush(out, f, fn, atomics);
  });
  const auto packed = reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapPush(compressed, f, fn, atomics);
  });
  const auto packed_locks = reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapPush(compressed, f, fn, with_locks);
  });
  EXPECT_EQ(packed, plain);
  EXPECT_EQ(packed_locks, plain);

  // Cross-check against the sequential reference.
  const auto levels = RefBfsLevels(graph, 0);
  std::set<VertexId> expected;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] != UINT32_MAX) {
      expected.insert(v);
    }
  }
  EXPECT_EQ(plain, expected);
}

}  // namespace
}  // namespace egraph
