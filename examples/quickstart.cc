// Quickstart: generate a graph, let the section-9 advisor pick a
// configuration, run BFS and Pagerank, and print the end-to-end timing
// breakdown the paper argues everyone should be looking at.
//
//   build/examples/quickstart [rmat-scale]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/engine/advisor.h"
#include "src/gen/datasets.h"
#include "src/graph/stats.h"

int main(int argc, char** argv) {
  using namespace egraph;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 16;

  // 1. Get a graph (here: a synthetic power-law R-MAT; see src/io for
  //    loading edge files from disk instead).
  std::printf("generating RMAT-%d...\n", scale);
  EdgeList graph = DatasetRmat(scale);
  const GraphStats stats = ComputeStats(graph);
  std::printf("%s\n", DescribeDataset("rmat", graph).c_str());

  // 2. Ask the advisor for a configuration (encodes the paper's roadmap).
  const Recommendation bfs_rec = Advise(TraitsBfs(), stats, MachineTraits{1});
  std::printf("advisor: BFS -> %s / %s / %s (%s)\n", LayoutName(bfs_rec.layout),
              DirectionName(bfs_rec.direction), SyncName(bfs_rec.sync),
              bfs_rec.rationale.c_str());

  // 3. Run BFS from the best-connected vertex. The handle builds (and
  //    bills) exactly the layouts needed.
  VertexId source = 0;
  {
    const std::vector<uint32_t> degrees = OutDegrees(graph);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (degrees[v] > degrees[source]) {
        source = v;
      }
    }
  }
  GraphHandle handle(std::move(graph));
  RunConfig config;
  config.layout = bfs_rec.layout;
  config.direction = bfs_rec.direction;
  config.sync = bfs_rec.sync;
  const BfsResult bfs = RunBfs(handle, source, config);

  int64_t reached = 0;
  for (const VertexId p : bfs.parent) {
    if (p != kInvalidVertex) {
      ++reached;
    }
  }
  std::printf("BFS: reached %lld vertices in %d iterations\n",
              static_cast<long long>(reached), bfs.stats.rounds());
  std::printf("  pre-processing: %.3f s\n  algorithm:      %.3f s\n",
              handle.preprocess_seconds(), bfs.stats.algorithm_seconds);

  // 4. Pagerank on the same handle (the advisor would pick the grid here;
  //    we reuse the adjacency list to show layout reuse).
  const PagerankResult pr = RunPagerank(handle, PagerankOptions{}, config);
  VertexId best = 0;
  for (VertexId v = 1; v < handle.num_vertices(); ++v) {
    if (pr.rank[v] > pr.rank[best]) {
      best = v;
    }
  }
  std::printf("Pagerank: top vertex %u (rank %.2e), algorithm %.3f s\n", best,
              static_cast<double>(pr.rank[best]), pr.stats.algorithm_seconds);
  return 0;
}
