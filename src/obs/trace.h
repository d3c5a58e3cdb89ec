// Per-iteration engine tracing: what the engine actually did each round —
// frontier size and representation, edges scanned and relaxed, the
// direction the push-pull heuristic chose, and wall time. One EngineTrace
// per algorithm run is the run's only per-round record. A TraceSession
// fills it from the run's round loop, which hands each round the counts its
// EdgeMap or scan call returned, so a trace counts exactly its own run's
// work under any concurrency, without reading the metrics registry.
//
// Completed traces are also deposited in the one process-wide TraceSink so
// that harness code (bench binaries, the CLI, the stats exposition) can
// export every run's trace without threading objects through each call site.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/options.h"
#include "src/obs/phase.h"
#include "src/obs/ring.h"
#include "src/util/timer.h"

namespace egraph::obs {

struct IterationRecord {
  int iteration = 0;              // 0-based round index
  int64_t frontier_size = 0;      // active vertices entering the round
  bool frontier_sparse = false;   // representation entering the round
  int64_t edges_scanned = 0;      // edge entries the round's kernel examined
  int64_t edges_relaxed = 0;      // successful updates in the round's kernel
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
//     ... EdgeMap(..., &used, &counts) ...
//     session.EndIteration(used, counts.scanned, counts.relaxed);
//   }
//
// The session is the run's algorithm phase: it holds a ScopedPhase(kAlgorithm)
// for its lifetime, so every Run* that traces its rounds counts in the
// phase table. BeginIteration also records the frontier size in the
// engine.frontier_size histogram. The destructor stamps total_seconds and
// deposits a copy of the trace in TraceSink::Get().
class TraceSession {
 public:
  TraceSession(EngineTrace& trace, const char* algorithm, Layout layout,
               Direction direction, Sync sync);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void BeginIteration(int64_t frontier_count, bool frontier_sparse);
  void EndIteration(Direction direction_used, int64_t edges_scanned, int64_t edges_relaxed);

 private:
  ScopedPhase phase_{Phase::kAlgorithm};
  EngineTrace& trace_;
  Timer total_timer_;
  Timer iteration_timer_;
  IterationRecord pending_;
  uint64_t iteration_start_ns_ = 0;  // timeline span anchor (0 = tracing off)
  bool in_iteration_ = false;
};

// The process's bounded collection of completed traces: the newest
// kMaxTraces runs, with drop accounting for the overwritten ones (the
// timeline buffers' bounded-with-drop-count contract, except the ring keeps
// the newest: the trace a user asks about is almost always the most recent
// run). ProcessReportToJson, the CLI and the stats exposition read Get().
class TraceSink : public NewestRing<EngineTrace> {
 public:
  static constexpr int kMaxTraces = 256;

  explicit TraceSink(size_t capacity = kMaxTraces) : NewestRing(capacity) {}

  // The process-wide sink every TraceSession deposits into.
  static TraceSink& Get();
};

}  // namespace egraph::obs

#endif  // SRC_OBS_TRACE_H_
