// NUMA substrate tests: partition balance and conservation, cost model
// properties, and the access counts BFS and Pagerank are priced from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/algos/reference.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "src/graph/stats.h"
#include "src/numa/cost_model.h"
#include "src/numa/numa_run.h"
#include "src/numa/partition.h"
#include "src/numa/topology.h"

namespace egraph {
namespace {

EdgeList TestGraph(int scale = 10) {
  RmatOptions options;
  options.scale = scale;
  return GenerateRmat(options);
}

TEST(Partition, BoundariesContiguousAndComplete) {
  const EdgeList graph = TestGraph();
  const NumaPartition partition = PartitionGraph(graph, 4);
  ASSERT_EQ(partition.num_nodes(), 4);
  const auto& boundaries = partition.boundaries();
  EXPECT_EQ(boundaries.front(), 0u);
  EXPECT_EQ(boundaries.back(), graph.num_vertices());
  for (size_t k = 1; k < boundaries.size(); ++k) {
    EXPECT_LE(boundaries[k - 1], boundaries[k]);
  }
  // NodeOf agrees with the ranges.
  for (int k = 0; k < 4; ++k) {
    for (VertexId v = boundaries[static_cast<size_t>(k)];
         v < boundaries[static_cast<size_t>(k) + 1]; v += 37) {
      EXPECT_EQ(partition.NodeOf(v), k);
    }
  }
}

TEST(Partition, EdgesConservedAndColocatedWithTarget) {
  const EdgeList graph = TestGraph();
  const NumaPartition partition = PartitionGraph(graph, 4);
  uint64_t total = 0;
  for (int k = 0; k < 4; ++k) {
    const Csr& in = partition.NodeInCsr(k);
    total += in.num_edges();
    EXPECT_EQ(in.num_edges(), partition.NodeOutCsr(k).num_edges());
    // Every edge's destination is local to the node (Polymer/Gemini rule).
    for (VertexId dst = 0; dst < graph.num_vertices(); ++dst) {
      if (in.Degree(dst) > 0) {
        EXPECT_EQ(partition.NodeOf(dst), k) << "dst " << dst;
      }
    }
  }
  EXPECT_EQ(total, graph.num_edges());
}

TEST(Partition, EdgeBalanceWithinTolerance) {
  const EdgeList graph = TestGraph(12);
  const NumaPartition partition = PartitionGraph(graph, 4);
  const double expected = static_cast<double>(graph.num_edges()) / 4.0;
  for (int k = 0; k < 4; ++k) {
    const double share = static_cast<double>(partition.NodeEdgeCount(k));
    // Hybrid vertex+edge balance: allow generous tolerance on skewed graphs.
    EXPECT_GT(share, 0.4 * expected) << "node " << k;
    EXPECT_LT(share, 1.9 * expected) << "node " << k;
  }
}

TEST(Partition, SingleNodeDegeneratesGracefully) {
  const EdgeList graph = TestGraph();
  const NumaPartition partition = PartitionGraph(graph, 1);
  EXPECT_EQ(partition.num_nodes(), 1);
  EXPECT_EQ(partition.NodeEdgeCount(0), graph.num_edges());
  EXPECT_GT(partition.partition_seconds(), 0.0);
}

TEST(CostModel, InterleavedCountsAreUniform) {
  const AccessCounts counts = InterleavedCounts(4000, 4);
  EXPECT_EQ(counts.local, 1000u);
  EXPECT_EQ(counts.remote, 3000u);
  EXPECT_NEAR(counts.MaxNodeShare(), 0.25, 1e-9);
}

TEST(CostModel, InterleavedModelsToMeasuredTime) {
  const AccessCounts counts = InterleavedCounts(1 << 20, 4);
  EXPECT_NEAR(ModeledSeconds(2.0, counts, kMachineB), 2.0, 1e-9);
}

TEST(CostModel, AllLocalIsFasterThanInterleaved) {
  AccessCounts counts;
  counts.local = 1 << 20;
  counts.remote = 0;
  counts.per_node.assign(4, (1 << 20) / 4);  // spread across nodes: no skew
  EXPECT_LT(ModeledSeconds(2.0, counts, kMachineB), 2.0);
}

TEST(CostModel, MoreRemoteIsSlower) {
  AccessCounts mostly_local;
  mostly_local.local = 900;
  mostly_local.remote = 100;
  mostly_local.per_node.assign(4, 250);
  AccessCounts mostly_remote;
  mostly_remote.local = 100;
  mostly_remote.remote = 900;
  mostly_remote.per_node.assign(4, 250);
  EXPECT_LT(ModeledSeconds(1.0, mostly_local, kMachineB),
            ModeledSeconds(1.0, mostly_remote, kMachineB));
}

TEST(CostModel, SkewTriggersContention) {
  AccessCounts balanced;
  balanced.local = 1000;
  balanced.remote = 0;
  balanced.per_node.assign(4, 250);
  AccessCounts skewed = balanced;
  skewed.per_node = {1000, 0, 0, 0};  // every access hammers node 0
  EXPECT_GT(ModeledSeconds(1.0, skewed, kMachineB),
            1.5 * ModeledSeconds(1.0, balanced, kMachineB));
}

TEST(CostModel, FourNodeMachineAmplifiesEffects) {
  AccessCounts local;
  local.local = 1000;
  local.remote = 0;
  local.per_node.assign(2, 500);
  const double gain_a = 1.0 - ModeledSeconds(1.0, local, kMachineA);
  AccessCounts local4 = local;
  local4.per_node.assign(4, 250);
  const double gain_b = 1.0 - ModeledSeconds(1.0, local4, kMachineB);
  // The 4-node AMD topology rewards locality more than the 2-node Intel.
  EXPECT_GT(gain_b, gain_a);
}

TEST(CostModel, MergeAccumulates) {
  AccessCounts a;
  a.local = 10;
  a.remote = 5;
  a.per_node = {10, 5};
  AccessCounts b;
  b.local = 1;
  b.remote = 2;
  b.per_node = {0, 3};
  a.Merge(b);
  EXPECT_EQ(a.local, 11u);
  EXPECT_EQ(a.remote, 7u);
  EXPECT_EQ(a.per_node, (std::vector<uint64_t>{10, 8}));
}

// Above 8 nodes every node keeps its own per_node slot: each iteration's
// histogram equals a brute-force count of the endpoints the BFS touches,
// scored by owning node. Iteration i expands BFS level i: every frontier
// vertex is read once per node's out-CSR, and every out-edge's destination
// is written once. One access in kNodes is local.
TEST(NumaRun, PerNodeCountsMatchBruteForceOnSixteenNodes) {
  constexpr int kNodes = 16;
  const EdgeList graph = TestGraph(12);
  const NumaPartition partition = PartitionGraph(graph, kNodes);
  ASSERT_EQ(partition.num_nodes(), kNodes);
  const std::vector<uint32_t> degrees = OutDegrees(graph);
  const VertexId source = static_cast<VertexId>(
      std::max_element(degrees.begin(), degrees.end()) - degrees.begin());
  const std::vector<uint32_t> levels = RefBfsLevels(graph, source);

  std::vector<std::vector<uint64_t>> expected;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] != UINT32_MAX && levels[v] >= expected.size()) {
      expected.resize(levels[v] + 1, std::vector<uint64_t>(kNodes, 0));
    }
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] != UINT32_MAX) {
      expected[levels[v]][static_cast<size_t>(partition.NodeOf(v))] += kNodes;
    }
  }
  for (const Edge& e : graph.edges()) {
    if (levels[e.src] != UINT32_MAX) {
      ++expected[levels[e.src]][static_cast<size_t>(partition.NodeOf(e.dst))];
    }
  }

  const std::vector<AccessCounts> counts = BfsAccessCounts(partition, levels);
  ASSERT_EQ(counts.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(counts[i].per_node, expected[i]) << "iteration " << i;
    EXPECT_EQ(counts[i].local, counts[i].total() / kNodes) << "iteration " << i;
  }
}

TEST(NumaRun, PagerankLocalityBeatsInterleavedOnMachineB) {
  // The headline of paper Fig. 9b: partitioned Pagerank's modeled algorithm
  // time is faster than interleaved on the 4-node machine.
  const EdgeList graph = TestGraph(12);
  const NumaPartition partition = PartitionGraph(graph, kMachineB.num_nodes);
  const AccessCounts counts = PagerankAccessCounts(partition);
  EXPECT_LT(ModeledFromBaseline(1.0, {&counts, 1}, kMachineB), 1.0);
}

TEST(NumaRun, BfsSkewCausesContentionPenalty) {
  // Paper Figs. 9a/10: BFS's per-iteration frontier concentrates in one
  // partition. The effect is strongest on high-diameter graphs with
  // contiguous ids (US-Road): the BFS wavefront is a contiguous id range,
  // which the contiguous NUMA partitioning maps onto a single node.
  RoadOptions road;
  road.width = 96;
  road.height = 96;
  const EdgeList graph = GenerateRoad(road);
  const NumaPartition partition = PartitionGraph(graph, kMachineB.num_nodes);
  double max_share = 0.0;
  for (const AccessCounts& counts : BfsAccessCounts(partition, RefBfsLevels(graph, 0))) {
    if (counts.total() > 500) {  // ignore trivial iterations
      max_share = std::max(max_share, counts.MaxNodeShare());
    }
  }
  // Substantial iterations concentrate well beyond the uniform 1/4 share,
  // triggering the cost model's contention penalty.
  EXPECT_GT(max_share, 0.4);

  // The power-law control: scrambled R-MAT frontiers spread nearly
  // uniformly, so skew stays close to 1/4 there.
  const EdgeList rmat = TestGraph(12);
  const NumaPartition rmat_partition = PartitionGraph(rmat, kMachineB.num_nodes);
  const std::vector<uint32_t> degrees = OutDegrees(rmat);
  VertexId source = 0;
  for (VertexId v = 0; v < rmat.num_vertices(); ++v) {
    if (degrees[v] > degrees[source]) {
      source = v;
    }
  }
  double rmat_share = 0.0;
  for (const AccessCounts& counts : BfsAccessCounts(rmat_partition, RefBfsLevels(rmat, source))) {
    if (counts.total() > 1000) {
      rmat_share = std::max(rmat_share, counts.MaxNodeShare());
    }
  }
  EXPECT_LT(rmat_share, max_share);
}

}  // namespace
}  // namespace egraph
