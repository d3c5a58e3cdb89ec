// EdgeMapScratch: reusable per-round scratch state for the EdgeMap kernels.
// Frontier-driven algorithms call EdgeMap once per iteration; without reuse
// every call pays a fresh Bitmap(n) allocation (page faults included) for
// round deduplication and a per-worker output-buffer vector. An
// ExecutionContext owns one scratch object so those allocations happen once
// per run and stay warm across rounds — and so concurrent queries (each in
// its own context) never share scratch even when they share one frozen
// GraphHandle.
//
// Concurrency contract: a scratch object serves ONE EdgeMap call at a time.
// The engine runs EdgeMaps sequentially (one per iteration), so a context's
// scratch is safe for every Run* entry point; code running concurrent
// EdgeMaps within one context must pass per-call scratch (or none —
// kernels fall back to local temporaries when no scratch is supplied).
#ifndef SRC_ENGINE_EDGE_MAP_SCRATCH_H_
#define SRC_ENGINE_EDGE_MAP_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "src/graph/types.h"
#include "src/util/bitmap.h"

namespace egraph {

class EdgeMapScratch {
 public:
  // Round-deduplication bitmap over n vertices, zeroed and ready for
  // TestAndSet. First acquisition allocates; later rounds clear in place
  // (a parallel word-store pass over warm pages, cheaper than faulting in a
  // fresh allocation every iteration).
  Bitmap& RoundBitmap(VertexId n) {
    if (round_bitmap_.size() != static_cast<int64_t>(n)) {
      round_bitmap_.Resize(static_cast<int64_t>(n));
    } else {
      round_bitmap_.Clear();
    }
    return round_bitmap_;
  }

  // Per-worker sparse-output buffers, emptied but with capacity retained:
  // after the first few rounds, pushes into them never reallocate (capacity
  // is bounded by the peak per-round frontier, which the scratch holds for
  // the rest of the run).
  std::vector<std::vector<VertexId>>& WorkerBuffers(int workers) {
    if (buffers_.size() != static_cast<size_t>(workers)) {
      buffers_.resize(static_cast<size_t>(workers));
    }
    for (auto& buffer : buffers_) {
      buffer.clear();
    }
    return buffers_;
  }

 private:
  Bitmap round_bitmap_;
  std::vector<std::vector<VertexId>> buffers_;
};

}  // namespace egraph

#endif  // SRC_ENGINE_EDGE_MAP_SCRATCH_H_
