// Engine observability: a metrics registry of counters and log2-bucketed
// histograms. An update is a relaxed atomic add on the metric's own values
// (one for a counter, two for a histogram sample), made once per EdgeMap
// call, round, query, build or merge, never per edge (the engine kernels
// sum their chunks' counts and publish once per call, CountedChunks in
// src/engine/edge_map.h). The paper's credibility
// rests on end-to-end measurement, so the instrumentation itself must not
// move the numbers it reports.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace egraph::obs {

// Monotonic counter. Add is safe from any thread: pool workers, foreign
// threads and other contexts' pools all add to the one relaxed atomic.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }

  void Increment() { Add(1); }

  int64_t Total() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed histogram of non-negative integer samples, safe to record
// from any thread like Counter. Bucket b holds samples in [2^(b-1), 2^b);
// bucket 0 holds samples <= 0 and 1. Percentiles are therefore resolved to
// within a factor of two, which is what per-iteration wall-time and
// frontier-size distributions need. Readers running concurrently with
// Record see a count, sum and buckets that may be a sample apart.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }

  void Record(int64_t sample) {
    buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  // Samples recorded: the sum of the bucket counts.
  int64_t Count() const;
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  // Upper bound of the bucket containing the q-quantile (q in [0, 1]).
  // Returns 0 for an empty histogram.
  int64_t Percentile(double q) const;

  void Reset();

  // Bucket index for a sample (exposed for tests).
  static int BucketOf(int64_t sample) {
    if (sample <= 1) {
      return 0;
    }
    int bucket = 0;
    uint64_t v = static_cast<uint64_t>(sample - 1);
    while (v != 0) {
      v >>= 1;
      ++bucket;
    }
    return bucket < kBuckets ? bucket : kBuckets - 1;
  }

  // Largest sample value mapping to `bucket` (the value Percentile reports).
  static int64_t BucketUpperBound(int bucket) {
    return bucket == 0 ? 1 : static_cast<int64_t>(1) << bucket;
  }

 private:
  std::string name_;
  std::atomic<int64_t> buckets_[kBuckets]{};
  std::atomic<int64_t> sum_{0};
};

struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  double mean = 0.0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
};

// Process-wide registry. Name lookup takes a mutex, so hot paths should
// resolve their Counter& once (see EngineCounters) rather than per event.
class Registry {
 public:
  static Registry& Get();

  // Returns the counter/histogram registered under `name`, creating it on
  // first use. References remain valid for the process lifetime.
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Zeroes every counter and histogram (names stay registered).
  void ResetAll();

  std::vector<CounterSnapshot> SnapshotCounters() const;
  std::vector<HistogramSnapshot> SnapshotHistograms() const;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  // std::map keeps snapshots name-sorted; unique_ptr keeps addresses stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The engine's hot-path counters, resolved once. EdgeMap and the scans
// publish once per call (CountedChunks in src/engine/edge_map.h), Frontier
// once per conversion.
struct EngineCounters {
  Counter& edgemap_calls;        // one per EdgeMap call (whole-graph scans not counted)
  Counter& edges_scanned;        // edge entries examined
  Counter& edges_relaxed;        // Update calls returning true
  Counter& frontier_to_dense;    // sparse -> bitmap materializations
  Counter& frontier_to_sparse;   // bitmap -> vector materializations
  Histogram& frontier_size;      // |frontier| entering each traced round

  static EngineCounters& Get();
};

}  // namespace egraph::obs

#endif  // SRC_OBS_METRICS_H_
