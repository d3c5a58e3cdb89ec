// Figure 10: BFS on the US-Road proxy, interleaved vs NUMA-aware on machine
// B. Paper: the NUMA-aware version is ~12x slower — on a high-diameter,
// low-degree graph every tiny frontier lives in one partition, so all cores
// hammer a single memory controller for thousands of iterations.
#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/algos/reference.h"
#include "src/numa/numa_run.h"
#include "src/numa/partition.h"
#include "src/numa/topology.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  const EdgeList graph = UsRoad();
  PrintBanner("Figure 10: BFS on US-Road, interleaved vs NUMA-aware (machine B)",
              "NUMA-aware ~12x slower: per-iteration frontiers concentrate on one "
              "node -> memory-controller contention across a huge iteration count",
              DescribeDataset("us-road-proxy", graph));

  const NumaTopology& topo = kMachineB;
  Table table({"placement", "preproc(s)", "partition(s)", "algorithm(s)", "total(s)",
               "max node share"});

  GraphHandle handle(graph);
  RunConfig config;  // adjacency push
  const BfsResult inter = RunBfs(handle, 0, config);
  RecordResult("BFS interleaved", inter.stats.algorithm_seconds, "us-road-proxy");
  table.AddRow({"interleaved", Sec(handle.preprocess_seconds()), Sec(0.0),
                Sec(inter.stats.algorithm_seconds),
                Sec(handle.preprocess_seconds() + inter.stats.algorithm_seconds), "25.0%"});

  const NumaPartition partition =
      PartitionGraph(graph, topo.num_nodes, PartitionCsrs::kOutOnly);
  const std::vector<AccessCounts> counts = BfsAccessCounts(partition, RefBfsLevels(graph, 0));
  const double modeled = ModeledFromBaseline(inter.stats.algorithm_seconds, counts, topo);
  RecordResult("BFS numa", modeled, "us-road-proxy");
  double weighted_share = 0.0;
  uint64_t weight = 0;
  for (const AccessCounts& iteration : counts) {
    weighted_share += iteration.MaxNodeShare() * static_cast<double>(iteration.total());
    weight += iteration.total();
  }
  table.AddRow({"NUMA-aware", Sec(0.0), Sec(partition.partition_seconds()), Sec(modeled),
                Sec(partition.partition_seconds() + modeled),
                Table::FormatPercent(weight == 0 ? 0.0 : weighted_share / weight)});
  table.Print("Figure 10");
  return 0;
}
