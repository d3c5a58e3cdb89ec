// Per-iteration engine tracing: what the engine actually did each round —
// frontier size and representation, edges scanned and relaxed, the
// direction the push-pull heuristic chose, and wall time. One EngineTrace
// per algorithm run; a TraceSession drives it from the run loop by
// snapshotting the engine counters around each iteration.
//
// Completed traces are also deposited in a TraceSink so that harness code
// (bench binaries, the CLI) can export every run's trace without threading
// objects through each call site. Which sink receives them is a thread-local
// decision: the process-wide TraceSink::Get() by default, or the sink bound
// by the innermost ScopedTraceSink — which is how each ExecutionContext
// keeps its queries' traces separate from every other context's.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/options.h"
#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace egraph::obs {

struct IterationRecord {
  int iteration = 0;              // 0-based round index
  int64_t frontier_size = 0;      // active vertices entering the round
  bool frontier_sparse = false;   // representation entering the round
  int64_t edges_scanned = 0;      // edge entries examined this round
  int64_t edges_relaxed = 0;      // successful updates this round
  Direction direction = Direction::kPush;  // direction actually executed
  double seconds = 0.0;           // wall time of the round
};

struct EngineTrace {
  std::string algorithm;
  Layout layout = Layout::kAdjacency;
  Direction direction = Direction::kPush;  // configured (kPushPull = hybrid)
  Sync sync = Sync::kAtomics;
  double total_seconds = 0.0;
  std::vector<IterationRecord> iterations;
};

// Drives an EngineTrace from an algorithm's iteration loop:
//
//   obs::TraceSession session(stats.trace, "bfs", layout, direction, sync);
//   while (!frontier.Empty()) {
//     session.BeginIteration(frontier.Count(), frontier.has_sparse());
//     ... EdgeMap ...
//     session.EndIteration(direction_actually_used);
//   }
//
// Edge counts come from counter deltas, so they include everything the
// EdgeMap/scan instrumentation records during the iteration (and read as
// zero under EGRAPH_METRICS=0). The counters are the process-global
// EngineCounters, so the deltas are exact only while one algorithm runs at
// a time: under a QuerySession with concurrency > 1, a query's trace also
// counts the edges other queries scan and relax during its rounds. The
// destructor stamps total_seconds and deposits a copy of the trace in the
// TraceSink.
class TraceSession {
 public:
  TraceSession(EngineTrace& trace, const char* algorithm, Layout layout,
               Direction direction, Sync sync);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void BeginIteration(int64_t frontier_count, bool frontier_sparse);
  void EndIteration(Direction direction_used);

 private:
  EngineTrace& trace_;
  Timer total_timer_;
  Timer iteration_timer_;
  IterationRecord pending_;
  int64_t scanned_at_begin_ = 0;
  int64_t relaxed_at_begin_ = 0;
  uint64_t iteration_start_ns_ = 0;  // timeline span anchor (0 = tracing off)
  bool in_iteration_ = false;
};

// Bounded collection of completed traces: a ring buffer holding the newest
// `capacity` traces, with drop accounting for the overwritten ones
// (mirroring the timeline buffers' bounded-with-drop-count contract, except
// the ring keeps the newest rather than the oldest — the trace a user asks
// about is almost always the most recent run). Instantiable so an
// ExecutionContext can own a private sink; Get() is the process-wide
// default that existing benches and the CLI keep using unchanged.
class TraceSink {
 public:
  static constexpr int kMaxTraces = 256;

  explicit TraceSink(size_t capacity = kMaxTraces);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Process-wide default sink (the default context's sink).
  static TraceSink& Get();

  // The sink TraceSession deposits into on this thread: the innermost
  // ScopedTraceSink binding, falling back to Get().
  static TraceSink& Current();

  void Record(const EngineTrace& trace);

  // Retained traces, oldest to newest.
  std::vector<EngineTrace> Snapshot() const;

  // Drops retained traces; recorded()/dropped() keep counting.
  void Clear();

  // Clears retained traces AND zeroes the recorded/dropped accounting —
  // what benches call between measured sections so long repetitions do not
  // accumulate state.
  void Reset();

  size_t capacity() const { return capacity_; }

  // Traces recorded since construction (or the last Reset), including ones
  // since overwritten.
  int64_t recorded() const;

  // Traces overwritten by newer ones since construction (or the last Reset).
  int64_t dropped() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<EngineTrace> traces_;  // ring storage, at most capacity_ entries
  size_t head_ = 0;                  // index of the oldest retained trace
  int64_t recorded_ = 0;
  int64_t dropped_ = 0;
};

// RAII thread-local binding of TraceSink::Current(). Bindings nest; each
// thread sees only its own binding (an ExecutionContext binds its sink on
// the thread running the query, leaving other queries' threads alone).
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink);
  ~ScopedTraceSink();

  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* previous_;
};

}  // namespace egraph::obs

#endif  // SRC_OBS_TRACE_H_
