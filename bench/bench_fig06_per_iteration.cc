// Figure 6: per-iteration algorithm time of BFS, push vs pull. Paper: push
// wins the first and late (small-frontier) iterations; pull wins the
// explosion iterations (2-3 on a power-law graph) where most of the graph is
// discovered.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/graph/stats.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  const EdgeList graph = Rmat();
  PrintBanner("Figure 6: per-iteration push vs pull, BFS",
              "push faster in iterations with small frontiers; pull faster during the "
              "frontier explosion (iterations 2-3)",
              DescribeDataset("rmat", graph));

  // Both runs share the adjacency pair; pick a well-connected source.
  const std::vector<uint32_t> degrees = OutDegrees(graph);
  VertexId source = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (degrees[v] > degrees[source]) {
      source = v;
    }
  }

  GraphHandle handle(graph);
  RunConfig push;
  push.direction = Direction::kPush;
  RunConfig pull;
  pull.direction = Direction::kPull;
  pull.sync = Sync::kLockFree;
  const BfsResult push_result = RunBfs(handle, source, push);
  const BfsResult pull_result = RunBfs(handle, source, pull);
  RecordResult("bfs push", push_result.stats.algorithm_seconds, "rmat");
  RecordResult("bfs pull", pull_result.stats.algorithm_seconds, "rmat");

  Table table({"iteration", "frontier", "push(s)", "pull(s)", "winner"});
  const std::vector<obs::IterationRecord>& push_rounds = push_result.stats.trace.iterations;
  const std::vector<obs::IterationRecord>& pull_rounds = pull_result.stats.trace.iterations;
  const size_t rounds = std::max(push_rounds.size(), pull_rounds.size());
  for (size_t i = 0; i < rounds; ++i) {
    const double push_s = i < push_rounds.size() ? push_rounds[i].seconds : 0.0;
    const double pull_s = i < pull_rounds.size() ? pull_rounds[i].seconds : 0.0;
    const int64_t frontier = i < push_rounds.size() ? push_rounds[i].frontier_size : 0;
    table.AddRow({Table::FormatCount(static_cast<int64_t>(i + 1)),
                  Table::FormatCount(frontier), Sec(push_s), Sec(pull_s),
                  push_s <= pull_s ? "push" : "pull"});
  }
  table.Print("Figure 6 (series; plot seconds vs iteration)");
  return 0;
}
