#include <fstream>
#include <stdexcept>

#include "perfbench/src/workloads.h"
#include "src/engine/graph_handle.h"

namespace perfbench {

void EngineLedger::Record(const std::string& kernel, double call_seconds,
                          const egraph::AlgoStats& stats) {
  Calls& calls = calls_[kernel];
  calls.seconds.push_back(call_seconds);
  double round_total = 0.0;
  int64_t edges = 0;
  for (const egraph::obs::IterationRecord& round : stats.trace.iterations) {
    round_total += round.seconds;
    edges += round.edges_scanned;
    calls.round_seconds.push_back(round.seconds);
    calls.pull_rounds += round.direction == egraph::Direction::kPull ? 1 : 0;
  }
  const double rounds = static_cast<double>(stats.trace.iterations.size());
  calls.total_rounds += static_cast<int64_t>(rounds);
  calls.rounds.push_back(rounds);
  calls.edges.push_back(static_cast<double>(edges));
  if (edges > 0) {
    calls.ns_per_edge.push_back(round_total * 1e9 / static_cast<double>(edges));
  }
  if (rounds > 0) {
    calls.us_per_round.push_back(round_total * 1e6 / rounds);
  }
}

std::vector<double> EngineLedger::CallSeconds(const std::string& kernel) const {
  const auto it = calls_.find(kernel);
  return it == calls_.end() ? std::vector<double>{} : it->second.seconds;
}

void EngineLedger::Fill(Report& report) const {
  for (const char* kernel : {"bfs", "sssp", "wcc", "pagerank"}) {
    const auto it = calls_.find(kernel);
    const Calls empty;
    const Calls& calls = it == calls_.end() ? empty : it->second;
    const std::string prefix = std::string("engine.") + kernel;
    report.Set(prefix + ".call_s", Median(calls.seconds), "s");
    report.Set(prefix + ".rounds", Median(calls.rounds), "count");
    report.Set(prefix + ".edges", Median(calls.edges), "count");
    report.Set(prefix + ".ns_per_edge", Median(calls.ns_per_edge), "ns");
    report.Set(prefix + ".us_per_round", Median(calls.us_per_round), "us");
    report.Set(prefix + ".round_p95_us", Quantile(calls.round_seconds, 0.95) * 1e6, "us");
    if (std::string(kernel) == "bfs") {
      report.Set("engine.bfs.pull_round_ratio",
                 calls.total_rounds > 0 ? static_cast<double>(calls.pull_rounds) /
                                              static_cast<double>(calls.total_rounds)
                                        : 0.0,
                 "ratio");
    }
  }
}

void ProbeLayouts(const egraph::EdgeList& edges, SpanLog& spans, Report& report) {
  using egraph::Layout;
  const std::vector<std::pair<std::string, egraph::PrepareConfig>> probes = {
      {"out_csr", {.layout = Layout::kAdjacency, .need_out = true, .need_in = false}},
      {"in_csr", {.layout = Layout::kAdjacency, .need_out = false, .need_in = true}},
      {"grid", {.layout = Layout::kGrid}},
      {"compressed", {.layout = Layout::kCompressed, .need_out = true, .need_in = false}},
  };
  for (const auto& [name, config] : probes) {
    egraph::GraphHandle handle{egraph::EdgeList(edges)};
    ScopedSpan build(spans, "layout.probe." + name, "layout.probe");
    handle.Prepare(config);
    report.Set("layout." + name + "_s", build.Seconds(), "s");
  }
}

std::vector<egraph::VertexId> ReadSources(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<egraph::VertexId> sources;
  egraph::VertexId v = 0;
  while (in >> v) {
    sources.push_back(v);
  }
  return sources;
}

}  // namespace perfbench
