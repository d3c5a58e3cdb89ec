#include "src/obs/timeline.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/util/env.h"
#include "src/util/table.h"

namespace egraph::obs {
namespace {

// A worker's display label when it never named itself ("worker 3", "main").
std::string TrackLabel(const Timeline::ThreadSnapshot& snapshot) {
  if (!snapshot.label.empty()) {
    return snapshot.label;
  }
  if (snapshot.worker_id == 0) {
    return "main (worker 0)";
  }
  if (snapshot.worker_id > 0) {
    return "worker " + std::to_string(snapshot.worker_id);
  }
  return "thread " + std::to_string(snapshot.tid);
}

bool IsPoolSpan(const TimelineEvent& event) {
  return event.kind == TimelineEventKind::kSpan &&
         std::string_view(event.cat) == "pool";
}

}  // namespace

bool TimelineEnableFromEnv() {
  if (EnvInt64("EG_TIMELINE", 0) != 0) {
    const int64_t capacity = EnvInt64("EG_TIMELINE_EVENTS", 0);
    if (capacity > 0) {
      Timeline::SetCapacityPerThread(static_cast<size_t>(capacity));
    }
    Timeline::SetEnabled(true);
  }
  return Timeline::Enabled();
}

TimelineSummary SummarizeTimeline() {
  TimelineSummary summary;
  uint64_t min_start = UINT64_MAX;
  uint64_t max_end = 0;

  for (const Timeline::ThreadSnapshot& snapshot : Timeline::Snapshot()) {
    TimelineWorkerSummary worker;
    worker.tid = snapshot.tid;
    worker.worker_id = snapshot.worker_id;
    worker.label = TrackLabel(snapshot);
    worker.events = snapshot.events.size();
    worker.dropped = snapshot.dropped;
    summary.dropped_events += snapshot.dropped;
    for (const TimelineEvent& event : snapshot.events) {
      min_start = std::min(min_start, event.start_ns);
      max_end = std::max(max_end, event.start_ns + event.dur_ns);
      if (!IsPoolSpan(event)) {
        continue;
      }
      const std::string_view name(event.name);
      const double seconds = static_cast<double>(event.dur_ns) * 1e-9;
      if (name == "run" || name == "steal") {
        ++worker.chunks;
        worker.busy_seconds += seconds;
        if (name == "steal") {
          ++worker.steals;
          worker.steal_seconds += seconds;
        }
      } else if (name == "idle") {
        worker.idle_seconds += seconds;
      }
    }
    if (worker.events != 0 || worker.dropped != 0) {
      summary.workers.push_back(std::move(worker));
    }
  }

  if (min_start != UINT64_MAX) {
    summary.wall_seconds = static_cast<double>(max_end - min_start) * 1e-9;
  }
  double busy_sum = 0.0;
  int pool_workers = 0;
  for (const TimelineWorkerSummary& worker : summary.workers) {
    if (worker.worker_id < 0 || worker.chunks == 0) {
      continue;  // foreign threads don't dilute pool utilization
    }
    ++pool_workers;
    busy_sum += worker.busy_seconds;
    summary.critical_path_seconds =
        std::max(summary.critical_path_seconds, worker.busy_seconds);
  }
  if (pool_workers > 0 && summary.wall_seconds > 0.0) {
    summary.utilization = busy_sum / (summary.wall_seconds * pool_workers);
  }
  if (pool_workers > 0 && busy_sum > 0.0) {
    summary.imbalance =
        summary.critical_path_seconds / (busy_sum / pool_workers);
  }
  return summary;
}

JsonValue TimelineSummaryToJson(const TimelineSummary& summary) {
  JsonValue out = JsonValue::Object();
  out.Set("wall_seconds", summary.wall_seconds);
  out.Set("critical_path_seconds", summary.critical_path_seconds);
  out.Set("utilization", summary.utilization);
  out.Set("imbalance", summary.imbalance);
  out.Set("dropped_events", static_cast<int64_t>(summary.dropped_events));
  JsonValue workers = JsonValue::Array();
  for (const TimelineWorkerSummary& worker : summary.workers) {
    JsonValue entry = JsonValue::Object();
    entry.Set("tid", worker.tid);
    entry.Set("worker", worker.worker_id);
    entry.Set("label", worker.label);
    entry.Set("events", static_cast<int64_t>(worker.events));
    entry.Set("dropped", static_cast<int64_t>(worker.dropped));
    entry.Set("chunks", worker.chunks);
    entry.Set("steals", worker.steals);
    entry.Set("busy_seconds", worker.busy_seconds);
    entry.Set("steal_seconds", worker.steal_seconds);
    entry.Set("idle_seconds", worker.idle_seconds);
    workers.Append(std::move(entry));
  }
  out.Set("workers", std::move(workers));
  return out;
}

JsonValue TimelineToChromeJson() {
  const std::vector<Timeline::ThreadSnapshot> snapshots = Timeline::Snapshot();

  // Rebase timestamps so the trace starts near zero (Chrome renders ts in
  // microseconds; raw steady-clock nanoseconds overflow its UI precision).
  uint64_t base_ns = UINT64_MAX;
  for (const auto& snapshot : snapshots) {
    for (const TimelineEvent& event : snapshot.events) {
      base_ns = std::min(base_ns, event.start_ns);
    }
  }
  if (base_ns == UINT64_MAX) {
    base_ns = 0;
  }

  JsonValue events = JsonValue::Array();
  for (const auto& snapshot : snapshots) {
    if (snapshot.events.empty()) {
      continue;
    }
    JsonValue meta = JsonValue::Object();
    meta.Set("ph", "M");
    meta.Set("name", "thread_name");
    meta.Set("pid", 0);
    meta.Set("tid", snapshot.tid);
    JsonValue meta_args = JsonValue::Object();
    meta_args.Set("name", TrackLabel(snapshot));
    meta.Set("args", std::move(meta_args));
    events.Append(std::move(meta));

    for (const TimelineEvent& event : snapshot.events) {
      JsonValue entry = JsonValue::Object();
      entry.Set("ph", event.kind == TimelineEventKind::kSpan ? "X" : "i");
      entry.Set("name", event.name);
      entry.Set("cat", event.cat);
      entry.Set("pid", 0);
      entry.Set("tid", snapshot.tid);
      entry.Set("ts", static_cast<double>(event.start_ns - base_ns) / 1e3);
      if (event.kind == TimelineEventKind::kSpan) {
        entry.Set("dur", static_cast<double>(event.dur_ns) / 1e3);
      } else {
        entry.Set("s", "t");  // instant scope: thread
      }
      JsonValue args = JsonValue::Object();
      args.Set("arg", event.arg);
      entry.Set("args", std::move(args));
      events.Append(std::move(entry));
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", "ms");
  out.Set("egraphSummary", TimelineSummaryToJson(SummarizeTimeline()));
  return out;
}

bool WriteTimelineTrace(const std::string& path) {
  return WriteReportFile(path, TimelineToChromeJson().Dump(/*indent=*/1) + "\n");
}

std::string TimelineSummaryTableString() {
  const TimelineSummary summary = SummarizeTimeline();
  std::string out = "timeline summary\n";
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "wall %.3fs  critical-path %.3fs  utilization %.1f%%  imbalance %.2f\n",
                summary.wall_seconds, summary.critical_path_seconds,
                summary.utilization * 100.0, summary.imbalance);
  out += buffer;
  if (summary.dropped_events != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "WARNING: %llu events dropped to full buffers; totals below "
                  "undercount (raise EG_TIMELINE_EVENTS)\n",
                  static_cast<unsigned long long>(summary.dropped_events));
    out += buffer;
  }
  Table table({"track", "chunks", "steals", "busy(s)", "steal(s)", "idle(s)",
               "events", "dropped"});
  for (const TimelineWorkerSummary& worker : summary.workers) {
    table.AddRow({worker.label, Table::FormatCount(worker.chunks),
                  Table::FormatCount(worker.steals), Table::FormatSeconds(worker.busy_seconds),
                  Table::FormatSeconds(worker.steal_seconds),
                  Table::FormatSeconds(worker.idle_seconds),
                  Table::FormatCount(static_cast<int64_t>(worker.events)),
                  Table::FormatCount(static_cast<int64_t>(worker.dropped))});
  }
  out += table.ToString();
  return out;
}

}  // namespace egraph::obs
