// Shared benchmark-harness plumbing: EG_SCALE-driven datasets, headers that
// tie each binary back to its paper table/figure, and uniform row helpers.
//
// Conventions:
//   - every bench prints which experiment it regenerates and the expected
//     qualitative shape from the paper,
//   - absolute seconds are machine-specific; the *shape* (ordering, rough
//     ratios, crossovers) is the reproduction target,
//   - EG_SCALE (default 18) sizes every dataset; EG_THREADS sizes the pool.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <string>

#include "src/gen/datasets.h"
#include "src/graph/edge_list.h"
#include "src/util/table.h"

namespace egraph::bench {

// Base R-MAT scale for this run (EG_SCALE).
int Scale();

// Datasets at the run's scale (+delta where a sweep needs it).
EdgeList Rmat(int delta = 0);

// R-MAT without id scrambling: hubs cluster at low vertex ids, as in the
// paper's raw generator output. The NUMA experiments depend on this
// id-correlated structure (BFS frontiers land inside one contiguous
// partition, the contention pathology of Figs. 9a/10).
EdgeList RmatUnscrambled(int delta = 0);
EdgeList Twitter();
EdgeList UsRoad();

// Prints the bench banner: experiment id, paper expectation, dataset line.
// Also arms the machine-readable exits: the engine trace report (EG_TRACE),
// the BENCH_<slug>.json result file (EG_BENCH_JSON), and — when EG_TIMELINE
// is set — the per-worker timeline trace (<slug>.timeline.json).
void PrintBanner(const std::string& experiment, const std::string& paper_expectation,
                 const std::string& dataset_description);

// Records one timed sample for a result cell. Samples with the same
// (cell, dataset) key accumulate as repetitions; at process exit every cell
// is emitted to BENCH_<slug>.json (schema "egraph-bench-v1") with
// reps/median/min/max/stddev so tools/bench_regress.py can diff runs.
// EG_BENCH_JSON=0 disables the file; EG_BENCH_DIR redirects it.
void RecordResult(const std::string& cell, double seconds,
                  const std::string& dataset = "");

// Formats "<preproc> + <algo> = <total>" style row cells.
std::string Sec(double seconds);

// A well-connected traversal source: the highest-out-degree vertex (vertex 0
// can be isolated after R-MAT id scrambling).
VertexId GoodSource(const EdgeList& graph);

// Wall-clock gates "candidate < baseline * factor". Timings under
// kMeaningfulSeconds are dominated by round dispatch and timer noise (ctest
// runs the benches at smoke scale beside other tests), so a gate is armed
// only when the baseline reaches it and the caller's precondition holds
// (`can_arm`, e.g. enough hardware threads), and never in a sanitizer
// build, whose wall clock measures the instrumentation. Otherwise it
// degrades to a regression bound, candidate < baseline *
// max(factor, kRegressionFactor) + kNoiseGraceSeconds, which still catches
// an accidental serialization and is never stricter than the armed gate.
// Checksum, identity and footprint gates never go through here: they stay
// hard at every scale and in every build.
inline constexpr double kMeaningfulSeconds = 0.05;
inline constexpr double kNoiseGraceSeconds = 0.05;
inline constexpr double kRegressionFactor = 4.0;
#ifdef EGRAPH_SANITIZED
inline constexpr bool kSanitizedBuild = true;
#else
inline constexpr bool kSanitizedBuild = false;
#endif

// Returns whether the gate held; `*armed` (optional) reports which form ran.
inline bool TimingGate(double candidate, double baseline, double factor, bool can_arm,
                       bool* armed = nullptr) {
  const bool strict = !kSanitizedBuild && can_arm && baseline >= kMeaningfulSeconds;
  if (armed != nullptr) {
    *armed = strict;
  }
  return strict ? candidate < baseline * factor
                : candidate < baseline * std::max(factor, kRegressionFactor) +
                                  kNoiseGraceSeconds;
}

}  // namespace egraph::bench

#endif  // BENCH_BENCH_COMMON_H_
