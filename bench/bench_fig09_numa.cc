// Figure 9: NUMA-aware partitioning vs interleaved placement for BFS and
// Pagerank on machines A (2 nodes) and B (4 nodes). Paper: Pagerank's
// algorithm time improves 1.3x (A) / 2x (B), but only B wins end-to-end;
// BFS loses everywhere — partitioning dwarfs its runtime and the
// frontier-concentration contention makes even the algorithm phase slower.
//
// Machine substitution (DESIGN.md): the partitioning cost and the engine's
// interleaved runs are measured on the host; the NUMA-aware algorithm time
// is the measured engine time priced by the cost model from the partition's
// per-iteration access counts.
#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/reference.h"
#include "src/numa/numa_run.h"
#include "src/numa/partition.h"
#include "src/numa/topology.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  const EdgeList graph = RmatUnscrambled();
  PrintBanner("Figure 9: NUMA-aware vs interleaved, machines A(2) and B(4)",
              "Pagerank: NUMA wins algorithm time on both, end-to-end only on B; "
              "BFS: NUMA loses everywhere (partitioning dwarfs runtime + contention)",
              DescribeDataset("rmat", graph));

  Table table({"machine", "algo", "placement", "preproc(s)", "partition(s)",
               "algorithm(s)", "total(s)"});

  const VertexId source = GoodSource(graph);

  for (const NumaTopology& topo : {kMachineA, kMachineB}) {
    // Partition per algorithm need: BFS expands frontiers over out-CSRs,
    // Pagerank gathers over in-CSRs. Each pays only its own keying.
    const NumaPartition bfs_partition =
        PartitionGraph(graph, topo.num_nodes, PartitionCsrs::kOutOnly);
    const NumaPartition pr_partition =
        PartitionGraph(graph, topo.num_nodes, PartitionCsrs::kInOnly);
    const AccessCounts pr_counts = PagerankAccessCounts(pr_partition);

    // --- BFS (best interleaved config: adjacency push) ---
    {
      GraphHandle handle(graph);
      RunConfig config;  // adjacency push atomics
      const BfsResult inter = RunBfs(handle, source, config);
      RecordResult(std::string(topo.name) + " BFS interleaved",
                   inter.stats.algorithm_seconds, "rmat-unscrambled");
      table.AddRow({topo.name, "BFS", "interleaved", Sec(handle.preprocess_seconds()),
                    Sec(0.0), Sec(inter.stats.algorithm_seconds),
                    Sec(handle.preprocess_seconds() + inter.stats.algorithm_seconds)});

      const std::vector<AccessCounts> counts =
          BfsAccessCounts(bfs_partition, RefBfsLevels(graph, source));
      const double modeled = ModeledFromBaseline(inter.stats.algorithm_seconds, counts, topo);
      RecordResult(std::string(topo.name) + " BFS numa", modeled, "rmat-unscrambled");
      // NUMA-aware run does not need the plain CSR: preproc is 0; the
      // partition step plays the preprocessing role.
      table.AddRow({topo.name, "BFS", "NUMA-aware", Sec(0.0),
                    Sec(bfs_partition.partition_seconds()), Sec(modeled),
                    Sec(bfs_partition.partition_seconds() + modeled)});
    }

    // --- Pagerank (best interleaved config: adjacency pull, no locks) ---
    {
      GraphHandle handle(graph);
      RunConfig config;
      config.direction = Direction::kPull;
      config.sync = Sync::kLockFree;
      const PagerankResult inter = RunPagerank(handle, PagerankOptions{}, config);
      RecordResult(std::string(topo.name) + " Pagerank interleaved",
                   inter.stats.algorithm_seconds, "rmat-unscrambled");
      table.AddRow({topo.name, "Pagerank", "interleaved",
                    Sec(handle.preprocess_seconds()), Sec(0.0),
                    Sec(inter.stats.algorithm_seconds),
                    Sec(handle.preprocess_seconds() + inter.stats.algorithm_seconds)});

      const double modeled =
          ModeledFromBaseline(inter.stats.algorithm_seconds, {&pr_counts, 1}, topo);
      table.AddRow({topo.name, "Pagerank", "NUMA-aware", Sec(0.0),
                    Sec(pr_partition.partition_seconds()), Sec(modeled),
                    Sec(pr_partition.partition_seconds() + modeled)});
    }

    // --- Long-running Pagerank (50 iterations) ---
    // On the paper's testbed Pagerank's algorithm phase dwarfs partitioning
    // (billion-edge graph, memory-bound passes); at laptop scale the graph
    // is LLC-resident and passes are cheap, so the end-to-end crossover
    // ("amortized for algorithms that run for a long time", section 7)
    // needs a longer run to show. Same technique, more iterations.
    {
      GraphHandle handle(graph);
      RunConfig config;
      config.direction = Direction::kPull;
      config.sync = Sync::kLockFree;
      PagerankOptions long_options;
      long_options.iterations = 50;
      const PagerankResult inter = RunPagerank(handle, long_options, config);
      table.AddRow({topo.name, "Pagerank50", "interleaved",
                    Sec(handle.preprocess_seconds()), Sec(0.0),
                    Sec(inter.stats.algorithm_seconds),
                    Sec(handle.preprocess_seconds() + inter.stats.algorithm_seconds)});

      const double modeled =
          ModeledFromBaseline(inter.stats.algorithm_seconds, {&pr_counts, 1}, topo);
      table.AddRow({topo.name, "Pagerank50", "NUMA-aware", Sec(0.0),
                    Sec(pr_partition.partition_seconds()), Sec(modeled),
                    Sec(pr_partition.partition_seconds() + modeled)});
    }
  }
  table.Print("Figure 9");
  return 0;
}
