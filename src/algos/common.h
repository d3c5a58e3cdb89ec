// Shared algorithm-run plumbing: the per-run statistics every algorithm
// reports (its wall time and its per-round engine trace). RunConfig, the
// configuration selecting which of the paper's techniques to enable, lives
// beside PrepareConfig in src/engine/graph_handle.h so the engine's
// dispatch can take it whole.
#ifndef SRC_ALGOS_COMMON_H_
#define SRC_ALGOS_COMMON_H_

#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/engine/options.h"
#include "src/obs/trace.h"

namespace egraph {

struct AlgoStats {
  double algorithm_seconds = 0.0;
  // The run's one per-round record: frontier size and representation,
  // edges scanned and relaxed, the direction that ran, and seconds, per
  // round. Also deposited in obs::TraceSink for export.
  obs::EngineTrace trace;

  int rounds() const { return static_cast<int>(trace.iterations.size()); }
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
// on the context's pool and its EdgeMap rounds reuse the context's scratch.
void PrepareForRun(GraphHandle& handle, const RunConfig& config);

}  // namespace egraph

#endif  // SRC_ALGOS_COMMON_H_
