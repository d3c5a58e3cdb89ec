// Shared plumbing of the end-to-end benchmark program: wall-clock stamps,
// order statistics, the span log of the traced run, and the metric report
// printed as the run's result line.
#ifndef PERFBENCH_SRC_BENCH_UTIL_H_
#define PERFBENCH_SRC_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/request_trace.h"

namespace perfbench {

// Steady-clock nanoseconds on the same base as RequestTrace stamps, so the
// benchmark's own timers and the serve tier's stamps can be subtracted.
inline uint64_t NowNs() { return egraph::obs::RequestNowNs(); }
inline double SecondsBetween(uint64_t from_ns, uint64_t to_ns) {
  return to_ns > from_ns ? static_cast<double>(to_ns - from_ns) * 1e-9 : 0.0;
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }
double Sum(const std::vector<double>& samples);

// Peak resident set of this process so far, in MiB (getrusage ru_maxrss).
double PeakRssMb();

// One timed interval around a call into a library layer. Spans form a tree
// through `parent`; serve-updates spans also carry the query id.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;
  std::string name;
  std::string layer;  // io, layout, engine, serve, snapshot, bench
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t query_id = -1;
};

// In-memory span log of the traced run. Disabled (the untraced run) it
// records nothing; spans are written out only once the run has ended.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (-1 when disabled).
  int64_t Add(const std::string& name, const std::string& layer, uint64_t start_ns,
              uint64_t end_ns, int64_t parent, int64_t query_id = -1);
  // Reserves an id for a span still open; Close() fills it in.
  int64_t Open(const std::string& name, const std::string& layer, int64_t parent,
               int64_t query_id = -1);
  void Close(int64_t id, uint64_t start_ns, uint64_t end_ns);

  // Per layer: the summed duration of its spans minus the part of each
  // span that its children cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  // Writes {"spans": [...]} to `path`.
  void Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

// The innermost open ScopedSpan on this thread (-1 at top level).
int64_t CurrentSpan();

// Times a call from the outside: always measures, records a span only when
// the log is enabled. Nested ScopedSpans on one thread become children.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, const std::string& layer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Seconds() const;

 private:
  SpanLog& log_;
  int64_t id_ = -1;
  int64_t saved_parent_ = -1;
  uint64_t start_ns_ = 0;
};

// The run's metrics, printed as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& what);  // counts one failed operation
  void Attempt(int64_t n = 1) { attempted_ += n; }

  void PrintResult() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Prints a one-line JSON record {"context": {...}} of the machine and run
// settings (nproc, L3 bytes, pool width) ahead of the result.
void PrintContext(const std::string& workload, bool traced);

// Last-level cache size as the C library reports it (0 if unknown).
uint64_t L3Bytes();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_UTIL_H_
