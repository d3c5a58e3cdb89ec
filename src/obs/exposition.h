// Live stats exposition: serializes the whole obs::Registry (counters +
// histograms) plus caller-supplied point-in-time gauges to the Prometheus
// text exposition format and to JSON, and runs a StatsSampler background
// thread that rewrites both files on a fixed interval — the scrape surface
// for `egraph_cli serve --stats-out`. Counters and histograms come straight
// from the registry snapshots; gauges are sampled through a callback at
// exposition time, so a serving layer can expose queue depth, in-flight
// queries, epoch-chain length etc. without the obs library knowing about
// QuerySession or SnapshotStore (which sit above it in the link order).
//
// Format notes (validated by tools/metrics_lint.py against the golden file
// in tests/data/):
//   * metric names are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* and prefixed
//     "egraph_" ("serve.bfs.total_us" -> "egraph_serve_bfs_total_us");
//   * registry counters emit as TYPE counter, gauges as TYPE gauge;
//   * histograms emit as TYPE summary: quantile-labeled samples for
//     p50/p95/p99 (log2-bucket upper bounds, the 2x resolution documented
//     in metrics.h) plus the exact _sum and _count.
#ifndef SRC_OBS_EXPOSITION_H_
#define SRC_OBS_EXPOSITION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.h"

namespace egraph::obs {

// A point-in-time measurement sampled at exposition time (queue depth,
// in-flight queries, retained bytes, ...). Dotted names; sanitized for
// Prometheus on output like every registry name.
struct GaugeSample {
  std::string name;
  double value = 0.0;
};

// Polled by the exposition writers each time they serialize.
using GaugeProvider = std::function<std::vector<GaugeSample>()>;

// The obs layer's own health gauges: engine-trace ring accounting for the
// process's TraceSink (obs.trace_sink.recorded / .dropped) and total
// timeline events dropped to full buffers (obs.timeline.dropped_events) —
// the drop counts that used to vanish silently when rings overflowed under
// high concurrency.
std::vector<GaugeSample> ObsSelfGauges();

// "serve.bfs.total_us" -> "egraph_serve_bfs_total_us": every character
// outside [a-zA-Z0-9_:] becomes '_', and the "egraph_" prefix namespaces
// the process in a shared scrape.
std::string PrometheusMetricName(const std::string& name);

// The full registry plus `gauges` in Prometheus text exposition format
// (ends with a newline, as the format requires).
std::string ExpositionText(const std::vector<GaugeSample>& gauges = {});

// Same content as JSON: {"schema": "egraph-stats-v1", "counters": {...},
// "histograms": {name: {count,sum,mean,p50,p90,p95,p99}}, "gauges": {...}},
// the counters and histograms encoded by MetricsToJson (export.h).
JsonValue ExpositionJson(const std::vector<GaugeSample>& gauges = {});

// Writes ExpositionText to `text_path` and ExpositionJson to `json_path`
// (skipping either when empty). Returns false (and prints to stderr) when a
// file cannot be written.
bool WriteExposition(const std::string& text_path, const std::string& json_path,
                     const std::vector<GaugeSample>& gauges = {});

// Background gauge/registry snapshotter: every interval it polls the gauge
// provider, appends ObsSelfGauges(), and rewrites the exposition files —
// the live side of `serve --stats-out=PATH --stats-interval-ms=N` (PATH
// gets the Prometheus text, PATH.json the JSON document). Stop() (or the
// destructor) takes a final sample so the files always end at the
// post-drain state.
class StatsSampler {
 public:
  struct Options {
    std::string path;        // Prometheus text file; + ".json" for the JSON
    int interval_ms = 1000;  // clamped to >= 1
    GaugeProvider gauges;    // optional; polled per sample
  };

  explicit StatsSampler(Options options);
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  // Takes one sample synchronously on the caller. Thread-safe.
  bool SampleNow();

  // Stops the background thread after a final sample. Idempotent.
  void Stop();

  // Samples written so far (periodic + SampleNow + the final one).
  int64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  const Options options_;
  std::atomic<int64_t> samples_{0};
  std::mutex mutex_;  // guards stop_ and serializes file writes
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace egraph::obs

#endif  // SRC_OBS_EXPOSITION_H_
