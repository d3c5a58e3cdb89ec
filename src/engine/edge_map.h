// EdgeMap: the engine's core primitive. Applies an edge functor over the
// active frontier. The functor contract is Ligra-style:
//
//   struct Functor {
//     // Attempt src -> dst propagation; return true iff dst's state changed
//     // (dst then joins the next frontier). Plain version: caller guarantees
//     // dst has no other writer (pull mode, lock-held, or grid ownership).
//     // Other workers may still read dst (Cond, or dst as their source), so
//     // the write is a relaxed AtomicStore.
//     bool Update(VertexId src, VertexId dst, float weight);
//     // Thread-safe version used by push mode with Sync::kAtomics.
//     bool UpdateAtomic(VertexId src, VertexId dst, float weight);
//     // Push: is dst still worth updating?  Pull: does dst still gather?
//     // Pull iteration stops scanning dst's in-edges when Cond turns false
//     // mid-scan (the paper's early-exit advantage of pull).
//     bool Cond(VertexId dst) const;
//   };
//
// Functors must be thread-compatible; all mutation goes through shared
// vertex-state arrays guarded per the selected Sync mode.
//
// Push, pull and the push-pull decision are written once, against the
// adjacency-source surface Csr and CompressedCsr share (src/layout/csr.h):
// Degree(v), CostPrefix(v), ForEachNeighborSlice(v, lo, hi, fn) and
// ForEachNeighborWhile(v, fn). The sharded backends reuse the same push
// inner loop and pull gather; the edge array and grid keep their own
// iteration orders. The one layout x direction switch that picks among them
// lives in src/engine/dispatch.h.
//
// Work partitioning (EdgeMapOptions::balance): every kernel can chunk its
// iteration space either by item count (Balance::kVertex — the classic
// fixed grain) or by edge cost (Balance::kEdge — chunk boundaries from a
// cost prefix sum, so a power-law hub cannot serialize its chunk). Push
// even splits a single hub's adjacency list across chunks; pull stays
// vertex-aligned (one writer per destination) but weights boundaries by
// list cost. Chunks dispatch at grain 1 on the work-stealing pool, so
// residual imbalance is stolen around.
#ifndef SRC_ENGINE_EDGE_MAP_H_
#define SRC_ENGINE_EDGE_MAP_H_

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "src/engine/edge_map_scratch.h"
#include "src/engine/frontier.h"
#include "src/engine/options.h"
#include "src/graph/edge_list.h"
#include "src/layout/grid.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"
#include "src/util/spinlock.h"

namespace egraph {

// Per-call execution knobs shared by every EdgeMap kernel.
struct EdgeMapOptions {
  Sync sync = Sync::kAtomics;
  Balance balance = Balance::kEdge;
  StripedLocks* locks = nullptr;      // required when sync == Sync::kLocks
  EdgeMapScratch* scratch = nullptr;  // optional cross-round scratch reuse
};

// Smallest edge cost a balanced chunk is allowed to carry: keeps tiny
// frontiers from shattering into per-vertex dispatches.
inline constexpr int64_t kEdgeMapMinChunkCost = 1024;

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

// Calls run(update), where update(src, dst, weight) applies func to an edge
// whose destination other workers may write concurrently: Sync::kLocks wraps
// Update in dst's striped lock, every other mode uses UpdateAtomic. Picking
// once per call keeps the sync branch out of the per-edge loop.
template <typename F, typename Run>
void WithSharedUpdate(F& func, Sync sync, StripedLocks* locks, Run&& run) {
  if (sync == Sync::kLocks) {
    auto update = [&func, locks](VertexId src, VertexId dst, float w) {
      SpinlockGuard guard(locks->For(dst));
      return func.Update(src, dst, w);
    };
    run(update);
  } else {
    auto update = [&func](VertexId src, VertexId dst, float w) {
      return func.UpdateAtomic(src, dst, w);
    };
    run(update);
  }
}

// Cuts the cost range [0, total) into balanced chunks (BalancedChunkCount)
// and calls chunk(p0, p1, worker) for each non-empty one, dispatched as
// grain-1 work items on the stealing pool.
template <typename Chunk>
void ParallelForCostChunks(uint64_t total, int64_t min_chunk_cost, Chunk&& chunk) {
  const int64_t num_chunks = BalancedChunkCount(total, min_chunk_cost);
  const uint64_t target =
      (total + static_cast<uint64_t>(num_chunks) - 1) / static_cast<uint64_t>(num_chunks);
  ParallelForChunks(0, num_chunks, /*grain=*/1, [&](int64_t lo, int64_t hi, int worker) {
    for (int64_t c = lo; c < hi; ++c) {
      const uint64_t p0 = static_cast<uint64_t>(c) * target;
      const uint64_t p1 = std::min<uint64_t>(p0 + target, total);
      if (p0 < p1) {
        chunk(p0, p1, worker);
      }
    }
  });
}

// Neighbor position `cost` units into a list of `degree` entries spanning
// `span` cost units: proportional, and exact when cost counts edges.
inline uint64_t PositionAtCost(uint64_t cost, uint64_t span, uint64_t degree) {
  if (span == degree) {
    return cost;
  }
  return static_cast<uint64_t>(static_cast<unsigned __int128>(cost) * degree / span);
}

// Edge-balanced slicing. Items [0, m) own neighbor lists whose costs
// concatenate into [0, prefix(m)); prefix(i) is the exclusive cost prefix
// and degree(i) the list length. Calls visit(i, j_lo, j_hi) for every item
// overlapping the cost range [p0, p1), with the neighbor sub-range that
// range covers, so a hub whose cost spans several chunks is split among
// them and every edge lands in exactly one piece.
template <typename Prefix, typename Degree, typename Visit>
void ForEachSliceInRange(int64_t m, uint64_t p0, uint64_t p1, Prefix&& prefix, Degree&& degree,
                         Visit&& visit) {
  // Item containing p0: the last i with prefix(i) <= p0 (skips any zero-cost
  // plateau ending at p0).
  int64_t lo = 0;
  int64_t hi = m;
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (static_cast<uint64_t>(prefix(mid)) <= p0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  for (int64_t i = lo; i < m; ++i) {
    const uint64_t base = prefix(i);
    if (base >= p1) {
      break;
    }
    const uint64_t end = prefix(i + 1);
    if (end == base) {
      continue;
    }
    const uint64_t d = degree(i);
    const uint64_t j_lo = PositionAtCost(std::max(p0, base) - base, end - base, d);
    const uint64_t j_hi = PositionAtCost(std::min(p1, end) - base, end - base, d);
    if (j_lo < j_hi) {
      visit(i, j_lo, j_hi);
    }
  }
}

// The push inner loop, shared by every push backend: relaxes neighbors
// [j_lo, j_hi) of `src` through `update` (the backend's sync policy), and
// for each changed destination sets the round bitmap, appending first-time
// discoveries to the worker's buffer. A half-open sub-range, not always the
// full list: the edge-balanced partitioner splits hub lists across chunks,
// and the shared bitmap keeps the output deduplicated regardless of which
// chunk wins a destination.
template <typename Source, typename F, typename Update>
inline void PushSlice(const Source& out, VertexId src, uint64_t j_lo, uint64_t j_hi, F& func,
                      Update& update, Bitmap& next, std::vector<VertexId>& buffer,
                      int64_t& relaxed) {
  out.ForEachNeighborSlice(src, j_lo, j_hi, [&](VertexId dst, float w) {
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
}

// Core of the push kernel: relaxes the out-edges of `active` under the
// selected balance mode, marking discoveries in `next` and appending them to
// per-worker `buffers`. Balance::kEdge partitions the frontier's
// concatenated neighbor positions [0, sum of active degrees): an exclusive
// prefix sum over active degrees maps a position range to (vertex, neighbor
// sub-range) pairs, so a mega-hub's list is split across as many chunks as
// its degree warrants (a compressed list decodes at most one partial chunk
// of skipped prefix per piece).
template <typename Source, typename F, typename Update>
void PushActive(const Source& out, std::span<const VertexId> active, F& func, Update& update,
                const EdgeMapOptions& options, Bitmap& next,
                std::vector<std::vector<VertexId>>& buffers) {
  const int64_t m = static_cast<int64_t>(active.size());
  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  if (options.balance == Balance::kEdge) {
    std::vector<uint64_t> local_prefix;
    std::vector<uint64_t>& prefix =
        options.scratch != nullptr ? options.scratch->PrefixStorage() : local_prefix;
    prefix.resize(static_cast<size_t>(m) + 1);
    prefix[static_cast<size_t>(m)] = 0;  // becomes the total: prefix(m) == sum
    ParallelFor(0, m, [&](int64_t i) {
      prefix[static_cast<size_t>(i)] = out.Degree(active[static_cast<size_t>(i)]);
    });
    const uint64_t total = ParallelExclusiveScan(prefix);
    ParallelForCostChunks(total, kEdgeMapMinChunkCost, [&](uint64_t p0, uint64_t p1, int worker) {
      obs::TimelineSpan chunk_span("engine", "edgemap.chunk", static_cast<int64_t>(p1 - p0));
      auto& buffer = buffers[static_cast<size_t>(worker)];
      int64_t relaxed = 0;
      ForEachSliceInRange(
          m, p0, p1, [&](int64_t i) { return prefix[static_cast<size_t>(i)]; },
          [&](int64_t i) { return out.Degree(active[static_cast<size_t>(i)]); },
          [&](int64_t i, uint64_t j_lo, uint64_t j_hi) {
            PushSlice(out, active[static_cast<size_t>(i)], j_lo, j_hi, func, update, next,
                      buffer, relaxed);
          });
      metrics.edges_scanned.Add(static_cast<int64_t>(p1 - p0));
      metrics.edges_relaxed.Add(relaxed);
    });
  } else {
    ParallelForChunks(0, m, /*grain=*/64, [&](int64_t lo, int64_t hi, int worker) {
      auto& buffer = buffers[static_cast<size_t>(worker)];
      const uint64_t span_start = obs::TimelineNow();
      int64_t scanned = 0;
      int64_t relaxed = 0;
      for (int64_t i = lo; i < hi; ++i) {
        const VertexId src = active[static_cast<size_t>(i)];
        const uint64_t degree = out.Degree(src);
        PushSlice(out, src, 0, degree, func, update, next, buffer, relaxed);
        scanned += static_cast<int64_t>(degree);
      }
      metrics.edges_scanned.Add(scanned);
      metrics.edges_relaxed.Add(relaxed);
      obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, scanned);
    });
  }
}

// Tallies of one gather pass.
struct GatherCounts {
  int64_t discovered = 0;
  int64_t scanned = 0;
  int64_t relaxed = 0;
};

// The pull gather, shared by every pull backend: each destination in
// [lo, hi) that satisfies Cond gathers from its in-neighbors present in the
// frontier, and stops early once Cond(dst) turns false (paper section
// 6.1.1: "the pull approach allows stopping the computation for a vertex in
// the middle of an iteration"; a compressed list then skips its undecoded
// chunks). Destinations whose state changed are set in `next`. The frontier
// test is word-batched: one bitmap word load covers up to 64 consecutive
// sources (sorted adjacency makes consecutive hits the common case).
template <typename Source, typename F>
GatherCounts GatherRange(const Source& in, int64_t lo, int64_t hi, const Bitmap& active,
                         F& func, Bitmap& next) {
  GatherCounts counts;
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

// Vertex-aligned balanced chunk boundaries over an adjacency source:
// cost(v) = cost of v's list + 1, read off the cost prefix (the +1 charges
// the per-vertex probe, so runs of empty lists still count as work). Lists
// stay whole, so every destination keeps exactly one writer.
template <typename Source>
std::vector<int64_t> VertexAlignedBounds(const Source& source, int64_t min_chunk_cost) {
  const int64_t n = static_cast<int64_t>(source.num_vertices());
  const uint64_t total =
      source.CostPrefix(static_cast<VertexId>(n)) + static_cast<uint64_t>(n);
  return BalancedChunkBoundaries(n, BalancedChunkCount(total, min_chunk_cost),
                                 [&source](int64_t v) {
                                   return source.CostPrefix(static_cast<VertexId>(v)) +
                                          static_cast<uint64_t>(v);
                                 });
}

}  // namespace edge_map_internal

// --- Adjacency push (paper: enables working on the active subset) ----------
//
// Over any adjacency source (plain or compressed out-lists). Sync::kAtomics
// uses Functor::UpdateAtomic; Sync::kLocks wraps plain Update in a striped
// spinlock keyed by dst (`options.locks` must outlive the call). Returns a
// sparse next frontier (deduplicated via a round bitmap).
template <typename Source, typename F>
Frontier EdgeMapPush(const Source& out, Frontier& frontier, F& func,
                     const EdgeMapOptions& options) {
  frontier.EnsureSparse();
  const auto& active = frontier.Vertices();
  obs::EngineCounters::Get().edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.push", static_cast<int64_t>(active.size()));
  edge_map_internal::SparseRound round(out.num_vertices(), options.scratch);
  edge_map_internal::WithSharedUpdate(func, options.sync, options.locks, [&](auto& update) {
    edge_map_internal::PushActive(out, std::span<const VertexId>(active), func, update,
                                  options, round.next(), round.buffers());
  });
  return round.Finish();
}

// --- Adjacency pull (lock-free: each dst is written by one thread) ---------
//
// Over any adjacency source (plain or compressed in-lists): the shared
// gather over every destination. Balance::kEdge keeps chunks vertex-aligned
// with boundaries from the source's cost prefix (edge offsets, or encoded
// bytes for compressed lists).
template <typename Source, typename F>
Frontier EdgeMapPull(const Source& in, Frontier& frontier, F& func,
                     const EdgeMapOptions& options) {
  const VertexId n = in.num_vertices();
  frontier.EnsureDense();

  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.pull", frontier.Count());

  Bitmap next(n);  // ownership moves into the result; scratch cannot serve it
  std::vector<int64_t> counts(static_cast<size_t>(ThreadPool::Current().num_threads()), 0);
  auto chunk_body = [&](int64_t lo, int64_t hi, int worker) {
    const uint64_t span_start = obs::TimelineNow();
    const edge_map_internal::GatherCounts c =
        edge_map_internal::GatherRange(in, lo, hi, frontier.bitmap(), func, next);
    counts[static_cast<size_t>(worker)] += c.discovered;
    metrics.edges_scanned.Add(c.scanned);
    metrics.edges_relaxed.Add(c.relaxed);
    obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, c.scanned);
  };
  if (options.balance == Balance::kEdge) {
    ParallelForBalancedChunks(
        edge_map_internal::VertexAlignedBounds(in, kEdgeMapMinChunkCost), chunk_body);
  } else {
    ParallelForChunks(0, static_cast<int64_t>(n), /*grain=*/256, chunk_body);
  }
  return Frontier::FromBitmap(n, std::move(next),
                              std::accumulate(counts.begin(), counts.end(), int64_t{0}));
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

// --- Edge array (edge-centric: always a full scan; paper section 4.1) ------
//
// Per-edge cost is uniform, so Balance::kEdge here means an adaptive chunk
// size (~kBalancedChunksPerWorker chunks per worker) instead of the fixed
// 4096 grain — equal counts already are equal cost.
template <typename F>
Frontier EdgeMapEdgeArray(const EdgeList& graph, Frontier& frontier, F& func,
                          const EdgeMapOptions& options) {
  const VertexId n = graph.num_vertices();
  frontier.EnsureDense();
  const auto& edges = graph.edges();
  const int64_t num_edges = static_cast<int64_t>(edges.size());

  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.edgearray", num_edges);

  Bitmap next(n);
  std::vector<int64_t> counts(static_cast<size_t>(ThreadPool::Current().num_threads()), 0);

  int64_t grain = 4096;
  if (options.balance == Balance::kEdge) {
    const int64_t num_chunks =
        BalancedChunkCount(static_cast<uint64_t>(num_edges), kEdgeMapMinChunkCost);
    grain = std::max<int64_t>(1, (num_edges + num_chunks - 1) / num_chunks);
  }

  const bool weighted = graph.has_weights();
  const auto& weights = graph.weights();
  edge_map_internal::WithSharedUpdate(func, options.sync, options.locks, [&](auto& update) {
    ParallelForChunks(0, num_edges, grain, [&](int64_t lo, int64_t hi, int worker) {
      const uint64_t span_start = obs::TimelineNow();
      int64_t local = 0;
      int64_t relaxed = 0;
      for (int64_t i = lo; i < hi; ++i) {
        const Edge& e = edges[static_cast<size_t>(i)];
        if (!frontier.Contains(e.src) || !func.Cond(e.dst)) {
          continue;
        }
        if (update(e.src, e.dst, weighted ? weights[static_cast<size_t>(i)] : 1.0f)) {
          ++relaxed;
          if (next.TestAndSet(e.dst)) {
            ++local;
          }
        }
      }
      counts[static_cast<size_t>(worker)] += local;
      metrics.edges_scanned.Add(hi - lo);  // edge-centric: every edge is touched
      metrics.edges_relaxed.Add(relaxed);
      obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, hi - lo);
    });
  });
  return Frontier::FromBitmap(n, std::move(next),
                              std::accumulate(counts.begin(), counts.end(), int64_t{0}));
}

// --- Grid ------------------------------------------------------------------

namespace edge_map_internal {

// Grid columns in descending edge count, with each column's count: the
// dispatch order of the column-owned kernels. Columns cannot be split —
// ownership is the point — so ordering is the only balancing lever: the
// pool preloads grain-1 items round-robin, which turns the sorted order
// into a static greedy assignment (heaviest columns spread across workers
// first) with stealing mopping up the tail.
struct GridColumns {
  std::vector<uint32_t> order;
  std::vector<uint64_t> edges;
};

inline GridColumns GridColumnsByMass(const Grid& grid) {
  const uint32_t blocks = grid.num_blocks();
  const auto& cell_offsets = grid.cell_offsets();
  GridColumns columns;
  columns.edges.assign(blocks, 0);
  ParallelFor(0, static_cast<int64_t>(blocks), [&](int64_t j) {
    uint64_t sum = 0;
    for (uint32_t i = 0; i < blocks; ++i) {
      const size_t c = grid.CellIndex(i, static_cast<uint32_t>(j));
      sum += cell_offsets[c + 1] - cell_offsets[c];
    }
    columns.edges[static_cast<size_t>(j)] = sum;
  });
  columns.order.resize(blocks);
  std::iota(columns.order.begin(), columns.order.end(), 0u);
  std::stable_sort(columns.order.begin(), columns.order.end(),
                   [&columns](uint32_t a, uint32_t b) {
                     return columns.edges[a] > columns.edges[b];
                   });
  return columns;
}

// Row-major cell chunks of roughly equal edge count: cell_offsets is
// row-major, so it is exactly the cost prefix the partitioner needs.
inline std::vector<int64_t> GridCellBounds(const Grid& grid, int64_t min_chunk_cost) {
  const auto& cell_offsets = grid.cell_offsets();
  const int64_t num_cells = static_cast<int64_t>(grid.num_blocks()) * grid.num_blocks();
  return BalancedChunkBoundaries(
      num_cells, BalancedChunkCount(grid.num_edges(), min_chunk_cost),
      [&cell_offsets](int64_t c) { return cell_offsets[static_cast<size_t>(c)]; });
}

}  // namespace edge_map_internal

// Sync::kLockFree exploits the grid's natural partition (paper section
// 6.1.2): each thread owns a set of destination blocks (columns), so all
// writes are exclusive and plain Update suffices — regardless of push/pull
// direction. Columns dispatch in descending edge count (GridColumnsByMass);
// the balance knob does not apply to them.
//
// Sync::kLocks / kAtomics iterate cells row-major (best source locality)
// with synchronized updates; Balance::kEdge groups the row-major cell
// sequence into chunks of roughly equal edge count (GridCellBounds).
template <typename F>
Frontier EdgeMapGrid(const Grid& grid, Frontier& frontier, F& func,
                     const EdgeMapOptions& options) {
  const VertexId n = grid.num_vertices();
  frontier.EnsureDense();
  const uint32_t blocks = grid.num_blocks();

  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.grid", frontier.Count());

  Bitmap next(n);
  std::vector<int64_t> counts(static_cast<size_t>(ThreadPool::Current().num_threads()), 0);
  const bool weighted = grid.has_weights();
  const auto& cell_offsets = grid.cell_offsets();

  auto process_cell = [&](uint32_t i, uint32_t j, int worker, auto& update) {
    const auto cell = grid.Cell(i, j);
    const auto weights = grid.CellWeights(i, j);
    int64_t local = 0;
    int64_t relaxed = 0;
    for (size_t k = 0; k < cell.size(); ++k) {
      const Edge& e = cell[k];
      if (!frontier.Contains(e.src) || !func.Cond(e.dst)) {
        continue;
      }
      if (update(e.src, e.dst, weighted ? weights[k] : 1.0f)) {
        ++relaxed;
        if (next.TestAndSet(e.dst)) {
          ++local;
        }
      }
    }
    counts[static_cast<size_t>(worker)] += local;
    metrics.edges_scanned.Add(static_cast<int64_t>(cell.size()));
    metrics.edges_relaxed.Add(relaxed);
  };

  if (options.sync == Sync::kLockFree) {
    // Column ownership: the thread processing column j is the only writer
    // of destination block j.
    auto owned = [&func](VertexId src, VertexId dst, float w) { return func.Update(src, dst, w); };
    const edge_map_internal::GridColumns columns = edge_map_internal::GridColumnsByMass(grid);
    ParallelForChunks(0, static_cast<int64_t>(blocks), /*grain=*/1,
                      [&](int64_t lo, int64_t hi, int worker) {
                        for (int64_t idx = lo; idx < hi; ++idx) {
                          const uint32_t j = columns.order[static_cast<size_t>(idx)];
                          const uint64_t span_start = obs::TimelineNow();
                          for (uint32_t i = 0; i < blocks; ++i) {
                            process_cell(i, j, worker, owned);
                          }
                          obs::TimelineEndSpan("engine", "edgemap.chunk", span_start,
                                               static_cast<int64_t>(columns.edges[j]));
                        }
                      });
  } else {
    edge_map_internal::WithSharedUpdate(func, options.sync, options.locks, [&](auto& update) {
      auto cells = [&](int64_t lo, int64_t hi, int worker) {
        const uint64_t span_start = obs::TimelineNow();
        for (int64_t c = lo; c < hi; ++c) {
          process_cell(static_cast<uint32_t>(c / blocks), static_cast<uint32_t>(c % blocks),
                       worker, update);
        }
        obs::TimelineEndSpan(
            "engine", "edgemap.chunk", span_start,
            static_cast<int64_t>(cell_offsets[static_cast<size_t>(hi)] -
                                 cell_offsets[static_cast<size_t>(lo)]));
      };
      if (options.balance == Balance::kEdge) {
        ParallelForBalancedChunks(
            edge_map_internal::GridCellBounds(grid, kEdgeMapMinChunkCost), cells);
      } else {
        ParallelForChunks(0, static_cast<int64_t>(blocks) * blocks, /*grain=*/1, cells);
      }
    });
  }
  return Frontier::FromBitmap(n, std::move(next),
                              std::accumulate(counts.begin(), counts.end(), int64_t{0}));
}

}  // namespace egraph

#endif  // SRC_ENGINE_EDGE_MAP_H_
