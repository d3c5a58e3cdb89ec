// Scoped phase timing matching the paper's end-to-end breakdown: loading,
// pre-processing, (NUMA) partitioning, algorithm. The library's own entry
// points (loader, GraphHandle::Prepare, PartitionGraph, every Run* through
// its obs::TraceSession) open the matching phase, so any binary can read a
// paper-style breakdown from the process without adding its own Timer
// calls.
//
// Phase accounting is off the hot path: a handful of events per run.
#ifndef SRC_OBS_PHASE_H_
#define SRC_OBS_PHASE_H_

#include <mutex>

#include "src/engine/options.h"
#include "src/util/timer.h"

namespace egraph::obs {

enum class Phase {
  kLoad = 0,
  kPreprocess = 1,
  kPartition = 2,
  kAlgorithm = 3,
};

inline constexpr int kNumPhases = 4;

const char* PhaseName(Phase phase);

// Process-wide accumulated wall time per phase. Nested scopes of the same
// phase (e.g. Prepare called from inside a Run*) only count the outermost
// scope, so a phase's total never double-counts.
class PhaseTimers {
 public:
  static PhaseTimers& Get();

  void Add(Phase phase, double seconds);
  double Seconds(Phase phase) const;
  void Reset();

  // The paper's reporting struct, filled from the four accumulators.
  TimingBreakdown ToBreakdown() const;

 private:
  PhaseTimers() = default;

  mutable std::mutex mutex_;
  double seconds_[kNumPhases] = {0.0, 0.0, 0.0, 0.0};
};

// RAII phase scope; adds the elapsed wall time on destruction. Re-entrant
// per thread: inner scopes of the same phase contribute nothing.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  bool outermost_;
  Timer timer_;
};

}  // namespace egraph::obs

#endif  // SRC_OBS_PHASE_H_
