// Wall-clock timing helpers used for every phase breakdown in the paper's
// experiments (loading, pre-processing, partitioning, algorithm execution).
#ifndef SRC_UTIL_TIMER_H_
#define SRC_UTIL_TIMER_H_

#include <chrono>

namespace egraph {

// Simple monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  // Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  // Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates the wall time of several disjoint intervals; used for
// per-iteration breakdowns (paper Fig. 6).
class AccumulatingTimer {
 public:
  void Start() { timer_.Reset(); }
  void Stop() { total_ += timer_.Seconds(); }
  double Seconds() const { return total_; }
  void Clear() { total_ = 0.0; }

 private:
  Timer timer_;
  double total_ = 0.0;
};

}  // namespace egraph

#endif  // SRC_UTIL_TIMER_H_
