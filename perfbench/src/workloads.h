// The four workloads. Each reads one input directory (generate.h), sets the
// graph up several times, measures for the requested seconds, checks its
// outputs outside the timed region and fills the report with every metric
// it measured; run.py prints the set BENCHMARK.json lists.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "src/algos/common.h"
#include "src/graph/edge_list.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::string input_dir;
  double seconds = 10.0;
  // Accept a twitter graph whose edge array plus CSRs fit in the L3 (smoke
  // runs only: such a result is not a ledger result).
  bool allow_cache_resident = false;
};

// twitter-analytics, road-traversal, twitter-compressed.
void RunAnalytics(const RunOptions& options, SpanLog& spans, Report& report);

// serve-updates.
void RunServeUpdates(const RunOptions& options, SpanLog& spans, Report& report);

// Per-layer layout probe: one timed GraphHandle::Prepare per layout (out
// CSR, in CSR, grid, compressed) on a fresh handle over a copy of `edges`.
void ProbeLayouts(const egraph::EdgeList& edges, SpanLog& spans, Report& report);

// Engine work of the benchmark's own Run* calls, read from the AlgoStats
// they return, per kernel (bfs, sssp, wcc, pagerank).
class EngineLedger {
 public:
  void Record(const std::string& kernel, double call_seconds, const egraph::AlgoStats& stats);
  std::vector<double> CallSeconds(const std::string& kernel) const;
  // engine.<kernel>.{call_s, rounds, edges, ns_per_edge, us_per_round,
  // round_p95_us} for every kernel (0 where the workload ran none) and
  // engine.bfs.pull_round_ratio.
  void Fill(Report& report) const;

 private:
  struct Calls {
    std::vector<double> seconds;
    std::vector<double> rounds;
    std::vector<double> edges;
    std::vector<double> ns_per_edge;
    std::vector<double> us_per_round;
    std::vector<double> round_seconds;  // pooled over calls
    int64_t pull_rounds = 0;
    int64_t total_rounds = 0;
  };
  std::map<std::string, Calls> calls_;
};

// Reads one vertex id per line.
std::vector<egraph::VertexId> ReadSources(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
