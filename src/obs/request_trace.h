// Serve-path request observability: one RequestTrace per served query,
// recording a monotonic timestamp at every lifecycle transition — submit,
// admission, queue dequeue, execution start, completion — plus the epoch it
// pinned. The engine traces (trace.h) answer "what did the algorithm do each
// round"; this answers the serving question: "where did query #4182's 40 ms
// go — admission, queue wait, dispatch, or execution?"
//
// The stamps are steady-clock nanoseconds taken at phase transitions (a
// handful of clock reads per query, never per edge or per round): the phase
// breakdown is part of the result a caller paid for. Everything derived
// from the stamps — per-kind latency histograms, the slow-query log,
// exposition — is ordinary registry traffic.
#ifndef SRC_OBS_REQUEST_TRACE_H_
#define SRC_OBS_REQUEST_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/ring.h"

namespace egraph::obs {

// Steady-clock nanoseconds, same base as the timeline's span stamps so the
// two instruments can be correlated. Always on (see header comment).
inline uint64_t RequestNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-query lifecycle trace. Stamps are 0 until the transition happens;
// phases are right-open intervals between consecutive stamps, so the four
// phase durations sum to Total() exactly (the acceptance property the tests
// and bench gate assert).
struct RequestTrace {
  uint64_t submit_ns = 0;       // Submit() entered
  uint64_t admit_ns = 0;        // admission decided (query accepted + queued)
  uint64_t dequeue_ns = 0;      // popped from the bounded queue
  uint64_t exec_start_ns = 0;   // Run* call began
  uint64_t done_ns = 0;         // result materialized (checksum included)

  // Epoch pin (snapshot-store sessions; 0/0 for plain-handle sessions).
  uint64_t epoch = 0;
  int64_t delta_depth_at_pin = 0;  // updates buffered behind the pinned epoch

  // Derived breakdown, in seconds. Unset stamps collapse the corresponding
  // phase to 0 rather than producing garbage.
  double AdmissionSeconds() const { return Delta(submit_ns, admit_ns); }
  double QueueWaitSeconds() const { return Delta(admit_ns, dequeue_ns); }
  // Dequeue -> Run* start: the worker's (tiny) gap between popping the
  // query and executing it.
  double DispatchSeconds() const { return Delta(dequeue_ns, exec_start_ns); }
  double ExecuteSeconds() const { return Delta(exec_start_ns, done_ns); }
  double TotalSeconds() const { return Delta(submit_ns, done_ns); }

  // True when every stamp is present and monotone (submit <= admit <=
  // dequeue <= exec_start <= done) — what a completed query must satisfy.
  bool Complete() const {
    return submit_ns != 0 && admit_ns >= submit_ns && dequeue_ns >= admit_ns &&
           exec_start_ns >= dequeue_ns && done_ns >= exec_start_ns;
  }

 private:
  static double Delta(uint64_t from_ns, uint64_t to_ns) {
    return (from_ns == 0 || to_ns <= from_ns)
               ? 0.0
               : static_cast<double>(to_ns - from_ns) * 1e-9;
  }
};

// One slow-query offender: the trace plus enough identity to act on it.
struct SlowQueryRecord {
  int64_t id = 0;
  std::string kind;    // query kind name ("bfs", ...)
  int worker = -1;
  RequestTrace trace;
};

// Renders one offender as a single diagnostic line: id, kind, total, and
// the full phase breakdown (admission / queue / dispatch / execute).
std::string FormatSlowQuery(const SlowQueryRecord& record);

// The newest offenders whose total latency crossed a threshold, in a
// NewestRing. MaybeRecord() is called once per completed query from the
// serving workers (queries complete at most thousands per second — this is
// not EdgeMap's hot path). Thread-safe throughout.
class SlowQueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit SlowQueryLog(double threshold_seconds,
                        size_t capacity = kDefaultCapacity);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  double threshold_seconds() const { return threshold_seconds_; }

  // Retains the record when trace.TotalSeconds() >= threshold. Returns
  // whether it qualified (retained or, if the ring was full, overwrote the
  // oldest offender and counted the displacement).
  bool MaybeRecord(const SlowQueryRecord& record);

  // Offenders, oldest to newest.
  std::vector<SlowQueryRecord> Snapshot() const { return ring_.Snapshot(); }

  int64_t recorded() const { return ring_.recorded(); }  // offenders seen
  int64_t dropped() const { return ring_.dropped(); }    // overwritten by newer ones

 private:
  const double threshold_seconds_;
  NewestRing<SlowQueryRecord> ring_;
};

}  // namespace egraph::obs

#endif  // SRC_OBS_REQUEST_TRACE_H_
