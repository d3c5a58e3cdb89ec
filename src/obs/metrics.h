// Engine observability: a metrics registry of per-worker-sharded counters
// and log2-bucketed histograms. Hot paths touch only their own worker's
// cache line (at most one relaxed fetch_add per chunk of work, never per
// edge; the engine kernels publish once per call); aggregation across
// shards happens on read. The paper's credibility rests on end-to-end
// measurement, so the instrumentation itself must not move the numbers it
// reports.
//
// Compile-time escape hatch: building with -DEGRAPH_METRICS=0 (CMake option
// EGRAPH_METRICS=OFF) compiles every mutation out of the hot path; readers
// then observe zeros. A runtime toggle (SetEnabled) additionally allows
// in-process overhead A/B measurement without rebuilding.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#ifndef EGRAPH_METRICS
#define EGRAPH_METRICS 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/thread_pool.h"

namespace egraph::obs {

inline constexpr bool kMetricsCompiled = EGRAPH_METRICS != 0;

// Runtime toggle over the compiled-in instrumentation (default: enabled).
// A single relaxed bool load on the mutation path; used by the overhead
// test to A/B the cost of the counter writes themselves.
bool Enabled();
void SetEnabled(bool enabled);

namespace internal {
// One cache line per worker so concurrent Add calls never share a line.
struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

extern std::atomic<bool> g_enabled;
}  // namespace internal

// Monotonic counter, sharded per pool worker. Adds from outside a parallel
// region (or from foreign threads) land on shard 0, which is why shards use
// fetch_add rather than plain stores. Shards are sized for the process-wide
// default pool; workers of larger context-private pools wrap around with a
// modulo, which costs contention on the shared shard but never correctness
// (registries and counters are process-lifetime, context pools are not).
class Counter {
 public:
  explicit Counter(std::string name);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  void Add(int64_t delta) {
#if EGRAPH_METRICS
    if (!internal::g_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    shards_[static_cast<size_t>(ThreadPool::CurrentWorkerSlot()) % shards_.size()]
        .value.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  void Increment() { Add(1); }

  // Aggregates across shards. Linearizable only when no Add is concurrent;
  // concurrent reads see a consistent-enough sum for reporting.
  int64_t Total() const;

  void Reset();

 private:
  std::string name_;
  std::vector<internal::CounterShard> shards_;
};

// Log2-bucketed histogram of non-negative integer samples, sharded per
// worker like Counter. Bucket b holds samples in [2^(b-1), 2^b); bucket 0
// holds samples <= 0 and 1. Percentiles are therefore resolved to within a
// factor of two, which is what per-iteration wall-time and frontier-size
// distributions need.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  explicit Histogram(std::string name);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }

  void Record(int64_t sample) {
#if EGRAPH_METRICS
    if (!internal::g_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    Shard& shard =
        shards_[static_cast<size_t>(ThreadPool::CurrentWorkerSlot()) % shards_.size()];
    shard.buckets[static_cast<size_t>(BucketOf(sample))].fetch_add(
        1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(sample, std::memory_order_relaxed);
#else
    (void)sample;
#endif
  }

  int64_t Count() const;
  int64_t Sum() const;
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
  struct alignas(64) Shard {
    std::atomic<int64_t> buckets[kBuckets]{};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
  };

  // Aggregated bucket counts across shards.
  std::vector<int64_t> MergedBuckets() const;

  std::string name_;
  std::vector<Shard> shards_;
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
