#include "src/obs/metrics.h"

#include <algorithm>

namespace egraph::obs {

// ---------------------------------------------------------------------------
// Histogram

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const std::atomic<int64_t>& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const int64_t count = Count();
  return count == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(count);
}

int64_t Histogram::Percentile(double q) const {
  int64_t counts[kBuckets];
  int64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  // Rank of the q-quantile sample, 1-based; q=0 maps to the first sample.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(q * static_cast<double>(total) + 0.5));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      return BucketUpperBound(b);
    }
  }
  return BucketUpperBound(kBuckets - 1);
}

void Histogram::Reset() {
  for (std::atomic<int64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::Get() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(name)).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(name)).first;
  }
  return *it->second;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

std::vector<CounterSnapshot> Registry::SnapshotCounters() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<CounterSnapshot> snapshot;
  snapshot.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.push_back({name, counter->Total()});
  }
  return snapshot;
}

std::vector<HistogramSnapshot> Registry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<HistogramSnapshot> snapshot;
  snapshot.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot s;
    s.name = name;
    s.count = histogram->Count();
    s.sum = histogram->Sum();
    s.mean = histogram->Mean();
    s.p50 = histogram->Percentile(0.50);
    s.p90 = histogram->Percentile(0.90);
    s.p95 = histogram->Percentile(0.95);
    s.p99 = histogram->Percentile(0.99);
    snapshot.push_back(std::move(s));
  }
  return snapshot;
}

// ---------------------------------------------------------------------------

EngineCounters& EngineCounters::Get() {
  static EngineCounters* counters = new EngineCounters{
      Registry::Get().GetCounter("engine.edgemap_calls"),
      Registry::Get().GetCounter("engine.edges_scanned"),
      Registry::Get().GetCounter("engine.edges_relaxed"),
      Registry::Get().GetCounter("frontier.to_dense"),
      Registry::Get().GetCounter("frontier.to_sparse"),
      Registry::Get().GetHistogram("engine.frontier_size"),
  };
  return *counters;
}

}  // namespace egraph::obs
