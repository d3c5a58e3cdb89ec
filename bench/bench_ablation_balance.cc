// Ablation: vertex- vs edge-balanced work partitioning in EdgeMap. Fixed
// vertex grains hand whole hub adjacency lists to single chunks; on R-MAT's
// power-law degrees the worker drawing the hub serializes the round.
// Edge-balanced chunking (degree prefix sum + boundary search, hub lists
// split across chunks) should cut the per-round busy-time imbalance and the
// wall time of push BFS, with PageRank's all-active scans showing the same
// effect through the scan primitives. Run with EG_TIMELINE=1 to get the
// measured max/mean busy imbalance per cell.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/obs/timeline.h"

namespace {

// Per-cell timeline bracket: when tracing is on, each timed run starts from
// an empty timeline so the summary's imbalance covers only that cell.
double CellImbalance() {
  if (!egraph::obs::Timeline::Enabled()) {
    return 0.0;
  }
  return egraph::obs::SummarizeTimeline().imbalance;
}

std::string Imb(double imbalance) {
  if (imbalance <= 0.0) {
    return "-";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", imbalance);
  return buffer;
}

}  // namespace

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  PrintBanner("Ablation balance: vertex vs edge-balanced EdgeMap chunking",
              "edge-balanced chunks cut hub-induced imbalance; >=1.2x on push BFS "
              "at skewed scales, parity on uniform work",
              "rmat at EG_SCALE and EG_SCALE+2");

  constexpr int kReps = 3;
  const Balance kBalances[] = {Balance::kVertex, Balance::kEdge};
  const int kDeltas[] = {0, 2};

  Table table({"cell", "dataset", "algorithm(s)", "imbalance"});
  for (const int delta : kDeltas) {
    const EdgeList graph = Rmat(delta);
    const std::string dataset = "rmat-" + std::to_string(Scale() + delta);
    const VertexId source = GoodSource(graph);

    for (const Balance balance : kBalances) {
      // BFS, adjacency push with atomics: the sparse-frontier kernel where
      // hub splitting matters most.
      RunConfig config;
      config.layout = Layout::kAdjacency;
      config.direction = Direction::kPush;
      config.sync = Sync::kAtomics;
      config.balance = balance;
      GraphHandle handle(graph);
      const std::string bfs_cell = std::string("bfs push ") + BalanceName(balance);
      double bfs_imbalance = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        obs::Timeline::Reset();
        const BfsResult result = RunBfs(handle, source, config);
        RecordResult(bfs_cell, result.stats.algorithm_seconds, dataset);
        bfs_imbalance = CellImbalance();
        if (rep == kReps - 1) {
          table.AddRow({bfs_cell, dataset, Sec(result.stats.algorithm_seconds),
                        Imb(bfs_imbalance)});
        }
      }

      // PageRank, adjacency push with atomics: all-active rounds through the
      // balanced ScanBySource.
      RunConfig pr_config = config;
      GraphHandle pr_handle(graph);
      PagerankOptions pr_options;
      pr_options.iterations = 5;
      const std::string pr_cell = std::string("pagerank push ") + BalanceName(balance);
      obs::Timeline::Reset();
      const PagerankResult pr = RunPagerank(pr_handle, pr_options, pr_config);
      RecordResult(pr_cell, pr.stats.algorithm_seconds, dataset);
      table.AddRow({pr_cell, dataset, Sec(pr.stats.algorithm_seconds),
                    Imb(CellImbalance())});
    }
  }
  table.Print("Ablation: work partitioning");
  return 0;
}
