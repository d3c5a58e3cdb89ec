#include "src/obs/trace.h"

#include "src/obs/metrics.h"
#include "src/obs/timeline.h"

namespace egraph::obs {

TraceSession::TraceSession(EngineTrace& trace, const char* algorithm, Layout layout,
                           Direction direction, Sync sync)
    : trace_(trace) {
  trace_.algorithm = algorithm;
  trace_.layout = layout;
  trace_.direction = direction;
  trace_.sync = sync;
  trace_.total_seconds = 0.0;
  trace_.iterations.clear();
}

TraceSession::~TraceSession() {
  if (in_iteration_) {
    // An algorithm bailed mid-iteration; close the record so the trace is
    // still well-formed.
    EndIteration(trace_.direction, 0, 0);
  }
  trace_.total_seconds = total_timer_.Seconds();
  TraceSink::Get().Record(trace_);
}

void TraceSession::BeginIteration(int64_t frontier_count, bool frontier_sparse) {
  pending_ = IterationRecord{};
  pending_.iteration = static_cast<int>(trace_.iterations.size());
  pending_.frontier_size = frontier_count;
  pending_.frontier_sparse = frontier_sparse;
  EngineCounters::Get().frontier_size.Record(frontier_count);
  in_iteration_ = true;
  iteration_start_ns_ = TimelineNow();
  iteration_timer_.Reset();
}

void TraceSession::EndIteration(Direction direction_used, int64_t edges_scanned,
                                int64_t edges_relaxed) {
  pending_.seconds = iteration_timer_.Seconds();
  pending_.edges_scanned = edges_scanned;
  pending_.edges_relaxed = edges_relaxed;
  pending_.direction = direction_used;
  TimelineEndSpan("engine", "iteration", iteration_start_ns_, pending_.iteration);
  trace_.iterations.push_back(pending_);
  in_iteration_ = false;
}

TraceSink& TraceSink::Get() {
  static TraceSink* sink = new TraceSink();
  return *sink;
}

}  // namespace egraph::obs
