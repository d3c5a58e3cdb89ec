// EdgeMap: the engine's core primitive. Applies an edge functor over the
// active frontier. The functor contract is Ligra-style:
//
//   struct Functor {
//     // Attempt src -> dst propagation; return true iff dst's state changed
//     // (dst then joins the next frontier). Plain version: caller guarantees
//     // dst has no other writer (pull mode, lock-held, grid ownership, or a
//     // call that runs alone: ThreadPool::CallRunsAlone). Other workers may
//     // still read dst (Cond, or dst as their source), so the write is a
//     // relaxed AtomicStore.
//     bool Update(VertexId src, VertexId dst, float weight);
//     // Thread-safe version used by push mode with Sync::kAtomics.
//     bool UpdateAtomic(VertexId src, VertexId dst, float weight);
//     // Push: is dst still worth updating?  Pull: does dst still gather?
//     // Pull iteration stops scanning dst's in-edges when Cond turns false
//     // mid-scan (the paper's early-exit advantage of pull).
//     bool Cond(VertexId dst) const;
//   };
//
// Functors must be thread-compatible and copyable; all mutation goes through
// shared vertex-state arrays guarded per the selected Sync mode, or
// unguarded in a call that runs alone (WithSharedUpdate). The grid's owned
// columns update through each worker's own copy (RunStoredEdgeScan in
// src/engine/dispatch.h).
//
// Push, pull and the push-pull decision are written once, against the
// adjacency-source surface Csr and CompressedCsr share (src/layout/csr.h):
// Degree(v), ForEachNeighbor(v, fn) and ForEachNeighborWhile(v, fn). The
// sharded backends reuse the same push inner loop and pull gather. The edge
// array and the grid have no EdgeMap kernel of their own: EdgeMap runs the
// stored-edge scans of src/engine/scan.h over them, always a full scan
// (paper section 4.1). The one layout x direction switch that picks among
// all of them lives in src/engine/dispatch.h.
//
// Work partitioning: every kernel hands the work-stealing pool fixed-size
// chunks, as the paper's engine hands Cilk workers fixed grains (section
// 2): push 64 frontier vertices, pull 256 destinations, and the stored-edge
// scans 4096 edges, one grid cell or one owned grid column (scan.h). An
// adjacency list is never split: a hub's list is walked by one worker while
// the others steal the remaining chunks (DESIGN.md section 5).
//
// Counting: every kernel, here and in scan.h and the sharded backends, runs
// its chunks through CountedChunks. A chunk returns the edges it scanned and
// relaxed and the vertices it discovered; the call's totals go to the
// registry once and back to the caller, which is how each run's trace
// counts exactly its own rounds under any concurrency.
#ifndef SRC_ENGINE_EDGE_MAP_H_
#define SRC_ENGINE_EDGE_MAP_H_

#include <cstdint>
#include <vector>

#include "src/engine/edge_map_scratch.h"
#include "src/engine/frontier.h"
#include "src/engine/options.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"
#include "src/util/spinlock.h"

namespace egraph {

// Per-call execution knobs shared by every EdgeMap kernel.
struct EdgeMapOptions {
  Sync sync = Sync::kAtomics;
  StripedLocks* locks = nullptr;      // required when sync == Sync::kLocks
  EdgeMapScratch* scratch = nullptr;  // optional cross-round scratch reuse
};

// Work of one chunk of a kernel, or of a whole call.
struct EdgeCounts {
  int64_t scanned = 0;     // edge entries examined
  int64_t relaxed = 0;     // updates that changed their destination
  int64_t discovered = 0;  // vertices a dense kernel set in its next bitmap

  EdgeCounts& operator+=(const EdgeCounts& other) {
    scanned += other.scanned;
    relaxed += other.relaxed;
    discovered += other.discovered;
    return *this;
  }
};

// The counted chunk loop every kernel runs: body(lo, hi, worker) over
// [begin, end) in chunks of `grain`, each returning its chunk's
// EdgeCounts. Chunks add into per-worker, cache-line-padded tallies and are
// each one `edgemap.chunk` timeline span. After the region the call's
// totals are published once to engine.edges_scanned / edges_relaxed, and
// returned.
template <typename Body>
EdgeCounts CountedChunks(int64_t begin, int64_t end, int64_t grain, Body&& body) {
  struct alignas(64) Tally {
    EdgeCounts counts;
  };
  std::vector<Tally> tallies(static_cast<size_t>(ThreadPool::Current().num_threads()));
  ParallelForChunks(begin, end, grain, [&](int64_t lo, int64_t hi, int worker) {
    const uint64_t span_start = obs::TimelineNow();
    const EdgeCounts chunk = body(lo, hi, worker);
    tallies[static_cast<size_t>(worker)].counts += chunk;
    obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, chunk.scanned);
  });
  EdgeCounts total;
  for (const Tally& tally : tallies) {
    total += tally.counts;
  }
  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edges_scanned.Add(total.scanned);
  metrics.edges_relaxed.Add(total.relaxed);
  return total;
}

namespace edge_map_internal {

// Gathers per-worker output buffers into one vector (order is arbitrary but
// deterministic given identical buffer contents). Scratch-owned buffers
// retain capacity (they are reused next round); ad-hoc buffers release
// their memory so a peak iteration does not pin it.
inline std::vector<VertexId> ConcatBuffers(std::vector<std::vector<VertexId>>& buffers,
                                           bool retain_capacity) {
  size_t total = 0;
  for (const auto& b : buffers) {
    total += b.size();
  }
  std::vector<VertexId> out;
  out.reserve(total);
  for (auto& b : buffers) {
    out.insert(out.end(), b.begin(), b.end());
    if (retain_capacity) {
      b.clear();
    } else {
      std::vector<VertexId>().swap(b);
    }
  }
  return out;
}

// Output of one push round: the dedup bitmap plus per-worker discovery
// buffers, served by the cross-round scratch when one is supplied.
class SparseRound {
 public:
  SparseRound(VertexId n, EdgeMapScratch* scratch) : n_(n), scratch_(scratch) {
    const int workers = ThreadPool::Current().num_threads();
    if (scratch != nullptr) {
      next_ = &scratch->RoundBitmap(n);
      buffers_ = &scratch->WorkerBuffers(workers);
    } else {
      local_next_.Resize(static_cast<int64_t>(n));
      local_buffers_.resize(static_cast<size_t>(workers));
      next_ = &local_next_;
      buffers_ = &local_buffers_;
    }
  }
  SparseRound(const SparseRound&) = delete;
  SparseRound& operator=(const SparseRound&) = delete;

  Bitmap& next() { return *next_; }
  std::vector<std::vector<VertexId>>& buffers() { return *buffers_; }

  // The round's deduplicated discoveries as a sparse frontier.
  Frontier Finish() {
    return Frontier::FromVector(n_, ConcatBuffers(*buffers_, scratch_ != nullptr));
  }

 private:
  VertexId n_;
  EdgeMapScratch* scratch_;
  Bitmap local_next_;
  std::vector<std::vector<VertexId>> local_buffers_;
  Bitmap* next_;
  std::vector<std::vector<VertexId>>* buffers_;
};

// Returns run(update), where update(src, dst, weight) applies func to an
// edge whose destination other workers may write concurrently. A call that
// runs alone (ThreadPool::CallRunsAlone) has no other worker, so it uses
// plain Update; otherwise Sync::kLocks wraps Update in dst's striped lock
// and every other mode uses UpdateAtomic. Picking once per call keeps the
// branch out of the per-edge loop.
template <typename F, typename Run>
auto WithSharedUpdate(F& func, Sync sync, StripedLocks* locks, Run&& run) {
  if (ThreadPool::CallRunsAlone()) {
    auto update = [&func](VertexId src, VertexId dst, float w) {
      return func.Update(src, dst, w);
    };
    return run(update);
  }
  if (sync == Sync::kLocks) {
    auto update = [&func, locks](VertexId src, VertexId dst, float w) {
      SpinlockGuard guard(locks->For(dst));
      return func.Update(src, dst, w);
    };
    return run(update);
  }
  auto update = [&func](VertexId src, VertexId dst, float w) {
    return func.UpdateAtomic(src, dst, w);
  };
  return run(update);
}

// The push inner loop, shared by every push backend: relaxes the out-edges
// of `src` through `update` (the backend's sync policy), and for each
// changed destination sets the round bitmap, appending first-time
// discoveries to the worker's buffer. Returns the edges walked.
template <typename Source, typename F, typename Update>
inline int64_t PushNeighbors(const Source& out, VertexId src, F& func, Update& update,
                             Bitmap& next, std::vector<VertexId>& buffer, int64_t& relaxed) {
  out.ForEachNeighbor(src, [&](VertexId dst, float w) {
    if (!func.Cond(dst)) {
      return;
    }
    if (update(src, dst, w)) {
      ++relaxed;
      if (next.TestAndSet(dst)) {
        buffer.push_back(dst);
      }
    }
  });
  return static_cast<int64_t>(out.Degree(src));
}

// The pull gather, shared by every pull backend: each destination in
// [lo, hi) that satisfies Cond gathers from its in-neighbors present in the
// frontier, and stops early once Cond(dst) turns false (paper section
// 6.1.1: "the pull approach allows stopping the computation for a vertex in
// the middle of an iteration"; a compressed list then skips its undecoded
// chunks). Destinations whose state changed are set in `next`. The frontier
// test is word-batched: one bitmap word load covers up to 64 consecutive
// sources (sorted adjacency makes consecutive hits the common case).
template <typename Source, typename F>
EdgeCounts GatherRange(const Source& in, int64_t lo, int64_t hi, const Bitmap& active, F& func,
                       Bitmap& next) {
  EdgeCounts counts;
  int64_t cached_word_index = -1;
  uint64_t cached_word = 0;
  for (int64_t v = lo; v < hi; ++v) {
    const VertexId dst = static_cast<VertexId>(v);
    if (!func.Cond(dst)) {
      continue;
    }
    bool updated = false;
    in.ForEachNeighborWhile(dst, [&](VertexId src, float w) {
      ++counts.scanned;
      const int64_t word_index = static_cast<int64_t>(src >> 6);
      if (word_index != cached_word_index) {
        cached_word_index = word_index;
        cached_word = active.Word(word_index);
      }
      if (((cached_word >> (src & 63)) & 1ULL) == 0) {
        return true;
      }
      if (func.Update(src, dst, w)) {
        updated = true;
        ++counts.relaxed;
      }
      return func.Cond(dst);  // false: dst is done for this round
    });
    if (updated) {
      next.Set(v);
      ++counts.discovered;
    }
  }
  return counts;
}

}  // namespace edge_map_internal

// --- Adjacency push (paper: enables working on the active subset) ----------
//
// Over any adjacency source (plain or compressed out-lists). Sync::kAtomics
// uses Functor::UpdateAtomic; Sync::kLocks wraps plain Update in a striped
// spinlock keyed by dst (`options.locks` must outlive the call); a call that
// runs alone uses plain Update under either (WithSharedUpdate). Returns a
// sparse next frontier (deduplicated via a round bitmap). Every kernel
// stores the call's EdgeCounts in `counts` when one is given.
template <typename Source, typename F>
Frontier EdgeMapPush(const Source& out, Frontier& frontier, F& func,
                     const EdgeMapOptions& options, EdgeCounts* counts = nullptr) {
  frontier.EnsureSparse();
  const auto& active = frontier.Vertices();
  obs::TimelineSpan timeline_span("engine", "edgemap.push", static_cast<int64_t>(active.size()));
  edge_map_internal::SparseRound round(out.num_vertices(), options.scratch);
  const EdgeCounts total =
      edge_map_internal::WithSharedUpdate(func, options.sync, options.locks, [&](auto& update) {
        return CountedChunks(0, static_cast<int64_t>(active.size()), /*grain=*/64,
                             [&](int64_t lo, int64_t hi, int worker) {
                               auto& buffer = round.buffers()[static_cast<size_t>(worker)];
                               EdgeCounts chunk;
                               for (int64_t i = lo; i < hi; ++i) {
                                 chunk.scanned += edge_map_internal::PushNeighbors(
                                     out, active[static_cast<size_t>(i)], func, update,
                                     round.next(), buffer, chunk.relaxed);
                               }
                               return chunk;
                             });
      });
  if (counts != nullptr) {
    *counts = total;
  }
  return round.Finish();
}

// --- Adjacency pull (lock-free: each dst is written by one thread) ---------
//
// Over any adjacency source (plain or compressed in-lists): the shared
// gather over every destination, 256 destinations per chunk. Takes no
// EdgeMapOptions: no write is shared, and the next frontier's bitmap moves
// into the result, so neither sync nor scratch applies.
template <typename Source, typename F>
Frontier EdgeMapPull(const Source& in, Frontier& frontier, F& func,
                     EdgeCounts* counts = nullptr) {
  const VertexId n = in.num_vertices();
  frontier.EnsureDense();
  obs::TimelineSpan timeline_span("engine", "edgemap.pull", frontier.Count());

  Bitmap next(n);  // ownership moves into the result; scratch cannot serve it
  const EdgeCounts total = CountedChunks(
      0, static_cast<int64_t>(n), /*grain=*/256, [&](int64_t lo, int64_t hi, int /*worker*/) {
        return edge_map_internal::GatherRange(in, lo, hi, frontier.bitmap(), func, next);
      });
  if (counts != nullptr) {
    *counts = total;
  }
  return Frontier::FromBitmap(n, std::move(next), total.discovered);
}

// --- Dynamic push-pull decision (Beamer/Ligra) -----------------------------
//
// Pull pays when the frontier's work estimate exceeds |E| / threshold_den.
// Needs both list directions (the pre-processing cost the paper charges
// against this mode on directed graphs).
template <typename Source>
bool PullPays(const Source& out, Frontier& frontier, const PushPullConfig& config) {
  return static_cast<double>(frontier.WorkEstimate(out)) >
         static_cast<double>(out.num_edges()) / config.threshold_den;
}

}  // namespace egraph

#endif  // SRC_ENGINE_EDGE_MAP_H_
