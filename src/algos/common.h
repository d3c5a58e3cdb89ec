// Shared algorithm-run plumbing: the per-run statistics every algorithm
// reports (iteration counts, per-iteration times, frontier sizes,
// push/pull decisions). RunConfig, the configuration selecting which of the
// paper's techniques to enable, lives beside PrepareConfig in
// src/engine/graph_handle.h so the engine's dispatch can take it whole.
#ifndef SRC_ALGOS_COMMON_H_
#define SRC_ALGOS_COMMON_H_

#include <cstdint>
#include <vector>

#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/engine/options.h"
#include "src/obs/trace.h"

namespace egraph {

struct AlgoStats {
  int iterations = 0;
  double algorithm_seconds = 0.0;
  std::vector<double> per_iteration_seconds;
  std::vector<int64_t> frontier_sizes;  // active vertices entering each round
  std::vector<bool> used_pull;          // push-pull decisions, when applicable
  // Per-iteration engine trace (frontier shape, edges scanned/relaxed,
  // direction actually used); also deposited in obs::TraceSink for export.
  obs::EngineTrace trace;
};

// Builds the layouts `config` needs on `handle` (cost lands in
// handle.preprocess_seconds()). Called by every Run* entry point so that a
// bare handle works out of the box; benches typically Prepare explicitly
// first to control and measure the method. Thread-safe against a frozen
// handle: concurrent callers needing the same layout pay one build between
// them (GraphHandle's per-layout call_once).
//
// Every Run* entry point additionally takes an ExecutionContext& (defaulted
// to ExecutionContext::Default(), so existing call sites are unchanged) and
// opens a context Scope for its duration: the run's parallel loops execute
// on the context's pool, its trace lands in the context's sink, and its
// EdgeMap rounds reuse the context's scratch.
void PrepareForRun(GraphHandle& handle, const RunConfig& config);

}  // namespace egraph

#endif  // SRC_ALGOS_COMMON_H_
