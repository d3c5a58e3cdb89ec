// Serving throughput: queries/second of a QuerySession over one frozen
// Twitter-proxy R-MAT handle, as session concurrency grows 1 -> 16. Each
// worker owns a private ExecutionContext and runs its queries against the
// shared handle; cells keep their historical "serve batch cN" names (one
// "batch" is the 24-query burst) so baselines stay comparable.
//
// Beside throughput, every concurrency cell records per-query p50 and p95
// latency in BENCH_*.json. The bench double-checks correctness while it
// measures: every cell must reproduce the checksums of the concurrency-1
// reference bit-identically, and every result's lifecycle trace must be
// complete with phases that sum to its total.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/engine/graph_handle.h"
#include "src/obs/request_trace.h"
#include "src/serve/query_session.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

// Acceptance gate: every served result must carry a complete lifecycle
// trace whose phase breakdown (admission + queue + dispatch + execute) sums
// to the measured total within 5%.
bool TraceIsConsistent(const egraph::serve::ServeResult& result) {
  const egraph::obs::RequestTrace& trace = result.trace;
  if (!trace.Complete()) {
    std::fprintf(stderr, "serve bench: query %lld trace incomplete\n",
                 static_cast<long long>(result.id));
    return false;
  }
  const double phase_sum = trace.AdmissionSeconds() + trace.QueueWaitSeconds() +
                           trace.DispatchSeconds() + trace.ExecuteSeconds();
  const double total = trace.TotalSeconds();
  if (std::abs(phase_sum - total) > total * 0.05 + 1e-9) {
    std::fprintf(stderr,
                 "serve bench: query %lld phase sum %.9fs diverges from total "
                 "%.9fs by more than 5%%\n",
                 static_cast<long long>(result.id), phase_sum, total);
    return false;
  }
  return true;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double index = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  PrintBanner("Serve throughput: concurrent QuerySessions on one frozen handle",
              "qps rises with concurrency 1 -> 4 (needs >= 4 hardware threads); "
              "checksums identical across every concurrency",
              "twitter-proxy rmat at EG_SCALE, symmetrized + weighted");

  EdgeList graph = Twitter();
  graph.AssignRandomWeights(0.1f, 1.0f, 1234);
  graph = graph.MakeUndirected();
  const std::string dataset = "twitter-" + std::to_string(Scale());
  const VertexId good = GoodSource(graph);
  const VertexId n = graph.num_vertices();
  GraphHandle handle(std::move(graph));

  // The query mix covers all four kernels: BFS / SSSP from a spread of
  // sources, pull-direction PageRank, and WCC. Sources, counts and configs
  // are identical across every cell so the batches are comparable.
  RunConfig config;
  config.layout = Layout::kAdjacency;
  config.direction = Direction::kPush;
  config.symmetric_input = true;
  std::vector<serve::ServeQuery> queries;
  uint64_t state = 42;
  for (int i = 0; i < 24; ++i) {
    serve::ServeQuery query;
    query.id = i;
    query.config = config;
    switch (i % 4) {
      case 0:
        query.kind = serve::QueryKind::kBfs;
        break;
      case 1:
        query.kind = serve::QueryKind::kSssp;
        break;
      case 2:
        query.kind = serve::QueryKind::kPagerank;
        query.config.direction = Direction::kPull;
        query.iterations = 5;
        break;
      case 3:
        query.kind = serve::QueryKind::kWcc;
        break;
    }
    query.source = (i % 8 == 0) ? good : static_cast<VertexId>(SplitMix64(state) % n);
    queries.push_back(query);
  }

  // Build every layout the mix touches before the measured cells so each
  // cell times pure query execution.
  for (const serve::ServeQuery& query : queries) {
    PrepareForRun(handle, query.config);
  }
  handle.Freeze();

  constexpr int kReps = 3;
  std::vector<serve::ServeResult> reference;
  std::vector<double> level_qps;
  std::vector<double> level_wall;
  bool checksums_match = true;

  const std::vector<int> levels = {1, 2, 4, 8, 16};
  Table table({"concurrency", "dataset", "batch wall", "queries/s", "p50", "p95", "checksums"});
  for (const int concurrency : levels) {
    // Historical cell name: "serve batch cN" = the 24-query batch at cN.
    const std::string cell_base = "serve batch c" + std::to_string(concurrency);
    double last_wall = 0.0;
    double last_qps = 0.0;
    double last_p50 = 0.0;
    double last_p95 = 0.0;
    bool level_match = true;
    for (int rep = 0; rep < kReps; ++rep) {
      serve::QuerySessionOptions options;
      options.concurrency = concurrency;
      options.threads_per_query = 1;
      options.queue_capacity = queries.size();
      serve::QuerySession session(handle, options);
      for (const serve::ServeQuery& query : queries) {
        if (session.Submit(query) != serve::SubmitStatus::kAccepted) {
          std::fprintf(stderr, "serve bench: submission rejected unexpectedly\n");
          return 1;
        }
      }
      const std::vector<serve::ServeResult> results = session.Drain();
      if (results.size() != queries.size()) {
        std::fprintf(stderr, "serve bench: %zu/%zu queries completed\n", results.size(),
                     queries.size());
        return 1;
      }
      for (const serve::ServeResult& result : results) {
        if (!TraceIsConsistent(result)) {
          return 1;
        }
      }
      if (reference.empty()) {
        reference = results;
      } else {
        for (size_t i = 0; i < results.size(); ++i) {
          level_match &= results[i].checksum == reference[i].checksum;
        }
      }
      std::vector<double> latencies;
      latencies.reserve(results.size());
      for (const serve::ServeResult& result : results) {
        latencies.push_back(result.seconds);
      }
      last_wall = session.stats().wall_seconds;
      last_qps = session.stats().qps;
      last_p50 = Percentile(latencies, 0.50);
      last_p95 = Percentile(latencies, 0.95);
      RecordResult(cell_base, last_wall, dataset);
      RecordResult(cell_base + " p50", last_p50, dataset);
      RecordResult(cell_base + " p95", last_p95, dataset);
    }
    checksums_match &= level_match;
    level_qps.push_back(last_qps);
    level_wall.push_back(last_wall);
    char wall[32], qps[32], p50[32], p95[32];
    std::snprintf(wall, sizeof(wall), "%.4fs", last_wall);
    std::snprintf(qps, sizeof(qps), "%.1f", last_qps);
    std::snprintf(p50, sizeof(p50), "%.4fs", last_p50);
    std::snprintf(p95, sizeof(p95), "%.4fs", last_p95);
    table.AddRow({std::to_string(concurrency), dataset, wall, qps, p50, p95,
                  level_match ? "match" : "MISMATCH"});
  }
  table.Print("serve throughput (24-query batch: 6 bfs + 6 sssp + 6 pagerank + 6 wcc)");

  if (!checksums_match) {
    std::fprintf(stderr,
                 "serve bench: FAIL - results diverge from the concurrency-1 "
                 "reference\n");
    return 1;
  }

  // Scaling gate on the batch's wall time: c4 must beat c1 on a machine with
  // 4 hardware threads once c1 runs long enough to mean something;
  // otherwise it only bounds a regression.
  const unsigned hw = std::thread::hardware_concurrency();
  bool armed = false;
  const bool scaled = TimingGate(level_wall[2], level_wall[0], 1.0, hw >= 4, &armed);
  if (!scaled) {
    std::fprintf(stderr,
                 "serve bench: FAIL - qps %s (c1 %.1f -> c4 %.1f) on %u "
                 "hardware threads\n",
                 armed ? "did not rise with concurrency" : "outside the regression bound",
                 level_qps[0], level_qps[2], hw);
    return 1;
  }
  std::printf("scaling (%s): qps %.1f (c1) -> %.1f (c4), %u hardware threads\n",
              armed ? "gated" : "regression bound only", level_qps[0], level_qps[2], hw);
  return 0;
}
