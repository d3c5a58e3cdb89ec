#include "src/obs/exposition.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace egraph::obs {
namespace {

// Prometheus sample values are floats; integral values print without a
// fraction so counters stay exact and diffable.
std::string FormatValue(double value) {
  char buffer[64];
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  }
  return buffer;
}

void AppendFamilyHeader(std::string& out, const std::string& metric,
                        const char* type) {
  out += "# TYPE ";
  out += metric;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::vector<GaugeSample> ObsSelfGauges() {
  std::vector<GaugeSample> gauges;
  const TraceSink& sink = TraceSink::Get();
  gauges.push_back({"obs.trace_sink.recorded",
                    static_cast<double>(sink.recorded())});
  gauges.push_back({"obs.trace_sink.dropped",
                    static_cast<double>(sink.dropped())});
  gauges.push_back({"obs.timeline.dropped_events",
                    static_cast<double>(Timeline::TotalDropped())});
  return gauges;
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "egraph_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string ExpositionText(const std::vector<GaugeSample>& gauges) {
  std::string out;

  for (const CounterSnapshot& c : Registry::Get().SnapshotCounters()) {
    const std::string metric = PrometheusMetricName(c.name);
    AppendFamilyHeader(out, metric, "counter");
    out += metric;
    out += ' ';
    out += FormatValue(static_cast<double>(c.value));
    out += '\n';
  }

  // Histograms expose as summaries: the registry's log2 buckets resolve a
  // quantile to its bucket's upper bound (within 2x), which is the same
  // contract Percentile() documents in-process.
  for (const HistogramSnapshot& h : Registry::Get().SnapshotHistograms()) {
    const std::string metric = PrometheusMetricName(h.name);
    AppendFamilyHeader(out, metric, "summary");
    const std::pair<const char*, int64_t> quantiles[] = {
        {"0.5", h.p50}, {"0.95", h.p95}, {"0.99", h.p99}};
    for (const auto& [q, value] : quantiles) {
      out += metric;
      out += "{quantile=\"";
      out += q;
      out += "\"} ";
      out += FormatValue(static_cast<double>(value));
      out += '\n';
    }
    out += metric;
    out += "_sum ";
    out += FormatValue(static_cast<double>(h.sum));
    out += '\n';
    out += metric;
    out += "_count ";
    out += FormatValue(static_cast<double>(h.count));
    out += '\n';
  }

  for (const GaugeSample& gauge : gauges) {
    const std::string metric = PrometheusMetricName(gauge.name);
    AppendFamilyHeader(out, metric, "gauge");
    out += metric;
    out += ' ';
    out += FormatValue(gauge.value);
    out += '\n';
  }
  return out;
}

JsonValue ExpositionJson(const std::vector<GaugeSample>& gauges) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "egraph-stats-v1");

  // The registry's "counters" and "histograms" objects, as the process
  // report (MetricsToJson) encodes them.
  const JsonValue metrics = MetricsToJson();
  for (const auto& [key, value] : metrics.members()) {
    doc.Set(key, value);
  }

  JsonValue gauge_obj = JsonValue::Object();
  for (const GaugeSample& gauge : gauges) {
    gauge_obj.Set(gauge.name, gauge.value);
  }
  doc.Set("gauges", std::move(gauge_obj));
  return doc;
}

bool WriteExposition(const std::string& text_path, const std::string& json_path,
                     const std::vector<GaugeSample>& gauges) {
  bool ok = true;
  if (!text_path.empty()) {
    ok &= WriteReportFile(text_path, ExpositionText(gauges));
  }
  if (!json_path.empty()) {
    ok &= WriteReportFile(json_path, ExpositionJson(gauges).Dump(2) + "\n");
  }
  return ok;
}

StatsSampler::StatsSampler(Options options) : options_(std::move(options)) {
  thread_ = std::thread([this] { Loop(); });
}

StatsSampler::~StatsSampler() { Stop(); }

bool StatsSampler::SampleNow() {
  std::vector<GaugeSample> gauges;
  if (options_.gauges) {
    gauges = options_.gauges();
  }
  const std::vector<GaugeSample> self = ObsSelfGauges();
  gauges.insert(gauges.end(), self.begin(), self.end());
  bool ok = false;
  {
    // Serialize with the background thread so the files never interleave
    // two writers.
    std::lock_guard<std::mutex> guard(mutex_);
    ok = WriteExposition(options_.path, options_.path + ".json", gauges);
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void StatsSampler::Stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stop_) {
      if (thread_.joinable()) {
        thread_.join();
      }
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  SampleNow();  // the files end at the final (post-drain) state
}

void StatsSampler::Loop() {
  const auto interval =
      std::chrono::milliseconds(options_.interval_ms < 1 ? 1 : options_.interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, interval, [this] { return stop_; })) {
        return;  // final write happens in Stop(), after the join
      }
    }
    SampleNow();
  }
}

}  // namespace egraph::obs
