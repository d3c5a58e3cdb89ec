// Figure 3: pre-processing vs algorithm time for BFS, Pagerank and SpMV on
// adjacency lists vs edge arrays. Paper: BFS -> adjacency wins (subset
// active); Pagerank -> roughly a wash end-to-end; SpMV -> edge array wins
// (single pass cannot amortize any pre-processing).
#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/spmv.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  const EdgeList graph = Rmat();  // BFS/Pagerank run unweighted, as in the paper
  EdgeList weighted = graph;
  weighted.AssignRandomWeights(0.5f, 1.5f, 4);  // SpMV needs matrix entries
  PrintBanner("Figure 3: vertex-centric (adjacency) vs edge-centric (edge array)",
              "BFS: adjacency wins; Pagerank: end-to-end tie; SpMV: edge array wins",
              DescribeDataset("rmat", graph));

  Table table({"algorithm", "layout", "preproc(s)", "algorithm(s)", "total(s)"});
  const std::vector<float> x(graph.num_vertices(), 1.0f);

  for (const Layout layout : {Layout::kAdjacency, Layout::kEdgeArray}) {
    RunConfig config;
    config.layout = layout;
    {
      GraphHandle handle(graph);
      const BfsResult result = RunBfs(handle, GoodSource(graph), config);
      RecordResult(std::string("BFS ") + LayoutName(layout),
                   result.stats.algorithm_seconds, "rmat");
      table.AddRow({"BFS", LayoutName(layout), Sec(handle.preprocess_seconds()),
                    Sec(result.stats.algorithm_seconds),
                    Sec(handle.preprocess_seconds() + result.stats.algorithm_seconds)});
    }
    {
      GraphHandle handle(graph);
      // Vertex-centric Pagerank runs pull/lock-free per the paper's best
      // adjacency configuration; edge-centric uses atomics, which a call
      // that runs alone (one thread) replaces with plain adds.
      RunConfig pr = config;
      if (layout == Layout::kAdjacency) {
        pr.direction = Direction::kPull;
        pr.sync = Sync::kLockFree;
      }
      const PagerankResult result = RunPagerank(handle, PagerankOptions{}, pr);
      RecordResult(std::string("Pagerank ") + LayoutName(layout),
                   result.stats.algorithm_seconds, "rmat");
      table.AddRow({"Pagerank", LayoutName(layout), Sec(handle.preprocess_seconds()),
                    Sec(result.stats.algorithm_seconds),
                    Sec(handle.preprocess_seconds() + result.stats.algorithm_seconds)});
    }
    {
      GraphHandle handle(weighted);
      const SpmvResult result = RunSpmv(handle, x, config);
      RecordResult(std::string("SpMV ") + LayoutName(layout),
                   result.stats.algorithm_seconds, "rmat");
      table.AddRow({"SpMV", LayoutName(layout), Sec(handle.preprocess_seconds()),
                    Sec(result.stats.algorithm_seconds),
                    Sec(handle.preprocess_seconds() + result.stats.algorithm_seconds)});
    }
  }
  table.Print("Figure 3");
  return 0;
}
