#include "src/obs/export.h"

#include <cstdio>

#include "src/engine/options.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/timeline.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace egraph::obs {

JsonValue PhasesToJson() {
  const TimingBreakdown breakdown = PhaseTimers::Get().ToBreakdown();
  JsonValue phases = JsonValue::Object();
  phases.Set("load", breakdown.load_seconds);
  phases.Set("preprocess", breakdown.preprocess_seconds);
  phases.Set("partition", breakdown.partition_seconds);
  phases.Set("algorithm", breakdown.algorithm_seconds);
  phases.Set("total", breakdown.Total());
  return phases;
}

JsonValue MetricsToJson() {
  JsonValue metrics = JsonValue::Object();

  JsonValue counters = JsonValue::Object();
  for (const CounterSnapshot& c : Registry::Get().SnapshotCounters()) {
    counters.Set(c.name, c.value);
  }
  metrics.Set("counters", std::move(counters));

  JsonValue histograms = JsonValue::Object();
  for (const HistogramSnapshot& h : Registry::Get().SnapshotHistograms()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", h.count);
    entry.Set("sum", h.sum);
    entry.Set("mean", h.mean);
    entry.Set("p50", h.p50);
    entry.Set("p90", h.p90);
    entry.Set("p95", h.p95);
    entry.Set("p99", h.p99);
    histograms.Set(h.name, std::move(entry));
  }
  metrics.Set("histograms", std::move(histograms));
  return metrics;
}

JsonValue TraceToJson(const EngineTrace& trace) {
  JsonValue out = JsonValue::Object();
  out.Set("algorithm", trace.algorithm);
  out.Set("layout", LayoutName(trace.layout));
  out.Set("direction", DirectionName(trace.direction));
  out.Set("sync", SyncName(trace.sync));
  out.Set("total_seconds", trace.total_seconds);
  out.Set("num_iterations", static_cast<int64_t>(trace.iterations.size()));

  JsonValue iterations = JsonValue::Array();
  for (const IterationRecord& record : trace.iterations) {
    JsonValue entry = JsonValue::Object();
    entry.Set("iteration", record.iteration);
    entry.Set("frontier_size", record.frontier_size);
    entry.Set("frontier_repr", record.frontier_sparse ? "sparse" : "dense");
    entry.Set("edges_scanned", record.edges_scanned);
    entry.Set("edges_relaxed", record.edges_relaxed);
    entry.Set("direction", DirectionName(record.direction));
    entry.Set("seconds", record.seconds);
    iterations.Append(std::move(entry));
  }
  out.Set("iterations", std::move(iterations));
  return out;
}

JsonValue ProcessReportToJson(const std::string& name) {
  JsonValue report = JsonValue::Object();
  report.Set("name", name);
  report.Set("schema", "egraph-trace-v1");
  report.Set("threads", ThreadPool::Current().num_threads());
  report.Set("phases", PhasesToJson());
  report.Set("metrics", MetricsToJson());

  JsonValue traces = JsonValue::Array();
  const TraceSink& sink = TraceSink::Get();
  for (const EngineTrace& trace : sink.Snapshot()) {
    traces.Append(TraceToJson(trace));
  }
  report.Set("traces", std::move(traces));

  // Ring drop accounting: without these, a report with a full trace ring or
  // saturated timeline buffers looks complete when it is not.
  JsonValue trace_sink = JsonValue::Object();
  trace_sink.Set("recorded", sink.recorded());
  trace_sink.Set("dropped", sink.dropped());
  trace_sink.Set("capacity", static_cast<int64_t>(sink.capacity()));
  report.Set("trace_sink", std::move(trace_sink));
  report.Set("timeline_dropped_events",
             static_cast<int64_t>(Timeline::TotalDropped()));
  return report;
}

std::string MetricsTableString() {
  std::string out;

  Table phases({"phase", "seconds"});
  const TimingBreakdown breakdown = PhaseTimers::Get().ToBreakdown();
  phases.AddRow({"load", Table::FormatSeconds(breakdown.load_seconds)});
  phases.AddRow({"preprocess", Table::FormatSeconds(breakdown.preprocess_seconds)});
  phases.AddRow({"partition", Table::FormatSeconds(breakdown.partition_seconds)});
  phases.AddRow({"algorithm", Table::FormatSeconds(breakdown.algorithm_seconds)});
  phases.AddRow({"total", Table::FormatSeconds(breakdown.Total())});
  out += "phase breakdown\n";
  out += phases.ToString();

  const auto counters = Registry::Get().SnapshotCounters();
  if (!counters.empty()) {
    Table table({"counter", "value"});
    for (const CounterSnapshot& c : counters) {
      table.AddRow({c.name, Table::FormatCount(c.value)});
    }
    out += "counters\n";
    out += table.ToString();
  }

  const auto histograms = Registry::Get().SnapshotHistograms();
  if (!histograms.empty()) {
    Table table({"histogram", "count", "mean", "p50", "p90", "p99"});
    char buffer[32];
    for (const HistogramSnapshot& h : histograms) {
      std::snprintf(buffer, sizeof(buffer), "%.1f", h.mean);
      table.AddRow({h.name, Table::FormatCount(h.count), buffer, Table::FormatCount(h.p50),
                    Table::FormatCount(h.p90), Table::FormatCount(h.p99)});
    }
    out += "histograms\n";
    out += table.ToString();
  }
  return out;
}

bool WriteReportFile(const std::string& path, std::string_view content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "obs: cannot open %s\n", path.c_str());
    return false;
  }
  const bool written = std::fwrite(content.data(), 1, content.size(), file) == content.size();
  // A full disk often shows only when fclose flushes the last buffer.
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool WriteProcessReport(const std::string& path, const std::string& name) {
  return WriteReportFile(path, ProcessReportToJson(name).Dump(/*indent=*/2) + "\n");
}

}  // namespace egraph::obs
