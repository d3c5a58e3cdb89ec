// Ablation: push-pull switching threshold (Ligra uses |E|/20). Sweeps the
// denominator and reports BFS algorithm time plus how many iterations ran in
// pull mode. Expected shape: a broad optimum around the Ligra constant —
// too small a denominator never pulls (all-push), too large always pulls.
#include "bench/bench_common.h"
#include "src/algos/bfs.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  const EdgeList graph = Rmat();
  PrintBanner("Ablation: push-pull threshold sweep (BFS, adjacency)",
              "broad optimum around the Ligra denominator 20",
              DescribeDataset("rmat", graph));

  // Build both CSR directions once; the sweep measures algorithm time only.
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.need_out = true;
  prepare.need_in = true;
  handle.Prepare(prepare);

  Table table({"threshold den", "algo(s)", "pull iterations", "total iterations"});
  for (const double den : {1.0, 5.0, 20.0, 100.0, 1000.0, 1e9}) {
    RunConfig config;
    config.direction = Direction::kPushPull;
    config.pushpull.threshold_den = den;
    const BfsResult result = RunBfs(handle, GoodSource(graph), config);
    int64_t pulls = 0;
    for (const obs::IterationRecord& round : result.stats.trace.iterations) {
      pulls += round.direction == Direction::kPull ? 1 : 0;
    }
    char den_str[32];
    std::snprintf(den_str, sizeof(den_str), "%.0f", den);
    RecordResult(std::string("threshold ") + den_str,
                 result.stats.algorithm_seconds, "rmat");
    table.AddRow({den_str, Sec(result.stats.algorithm_seconds), Table::FormatCount(pulls),
                  Table::FormatCount(result.stats.rounds())});
  }
  table.Print("Push-pull threshold ablation");
  return 0;
}
