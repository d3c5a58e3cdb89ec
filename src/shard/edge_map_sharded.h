// Sharded EdgeMap backends: two-phase push with Grappa-style message
// aggregation, and an owner-partitioned pull.
//
// Push, phase 1 (scatter): one grain-1 task per source shard iterates that
// shard's frontier slice. Destinations the shard owns are updated with plain
// stores — task s is the only writer of shard-s vertex state in this phase —
// and remote destinations are enqueued into the (s, t) AggregationBuffer,
// which seals whole-cache-line batches as it fills. Push, phase 2 (apply):
// one grain-1 task per destination shard drains every inbound buffer and
// applies the batches as sequential plain stores. The barrier between the
// phases is the return of the phase-1 ParallelForChunks. Nothing in either
// phase takes a lock on vertex state: ownership replaces the striped-lock
// scatter of EdgeMapPush, so EdgeMapOptions::sync is a no-op here
// (treated as Sync::kLockFree regardless of what the caller sets).
//
// Both kernels reuse the engine's shared loops: phase 1 relaxes through the
// same push inner loop as EdgeMapPush (with an owner-or-enqueue sync
// policy), and the pull runs the same gather as EdgeMapPull, one shard's
// destination range per task.
//
// The round-dedup bitmap is shared across phases and shards via the atomic
// Bitmap::TestAndSet — the one cross-shard write that remains, and it is
// idempotent. Every kernel here dispatches shard tasks in descending edge
// mass (the grid's column idiom: grain-1 dispatch turns the sorted order
// into a static greedy assignment); shards cannot be split — ownership is
// the point.
//
// TSan note: phase-2 plain Update stores may race benignly with nothing —
// phases are barrier-separated and each dst has one owner — but functors
// whose Cond reads neighbor state must use the same AtomicLoad discipline
// the pull kernels already rely on.
#ifndef SRC_SHARD_EDGE_MAP_SHARDED_H_
#define SRC_SHARD_EDGE_MAP_SHARDED_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/engine/edge_map.h"
#include "src/engine/scan.h"
#include "src/engine/frontier.h"
#include "src/engine/options.h"
#include "src/layout/csr.h"
#include "src/obs/timeline.h"
#include "src/shard/aggregation_buffer.h"
#include "src/shard/shard_metrics.h"
#include "src/shard/sharded_graph.h"
#include "src/util/bitmap.h"
#include "src/util/parallel.h"

namespace egraph {

namespace shard_internal {

// The S x S mesh of aggregation buffers for one kernel invocation. Buffer
// (s, t) has exactly one producer (the phase-1 task for shard s) and one
// consumer (the phase-2 task for shard t), which is what lets both sides
// run lock-free outside the brief seal/drain spill swap.
class BufferGrid {
 public:
  explicit BufferGrid(int num_shards, int capacity = kDefaultAggregationCapacity)
      : num_shards_(num_shards) {
    buffers_.reserve(static_cast<size_t>(num_shards) * static_cast<size_t>(num_shards));
    for (int i = 0; i < num_shards * num_shards; ++i) {
      buffers_.emplace_back(capacity);
    }
  }

  AggregationBuffer& At(int s, int t) {
    return buffers_[static_cast<size_t>(s) * static_cast<size_t>(num_shards_) +
                    static_cast<size_t>(t)];
  }

  // End-of-scatter flush for producer shard s: seals every partial batch in
  // row (s, *) and records occupancy samples off the hot path — the partial
  // seal's fill level per non-empty buffer, plus one full-capacity sample
  // for any buffer that sealed at least one full batch (so the histogram
  // reflects both regimes without a Record per sealed line group).
  void FlushRow(int s) {
    obs::Histogram& occupancy = ShardMetrics::Get().buffer_occupancy;
    for (int t = 0; t < num_shards_; ++t) {
      if (t == s) {
        continue;
      }
      AggregationBuffer& buffer = At(s, t);
      const bool sealed_full = buffer.flush_batches() > 0;
      const size_t partial = buffer.Flush();
      if (sealed_full) {
        occupancy.Record(buffer.capacity());
      }
      if (partial != 0) {
        occupancy.Record(static_cast<int64_t>(partial));
      }
    }
  }

  // One bulk counter publish per kernel instead of a fetch_add per edge.
  void PublishStats() const {
    int64_t enqueued = 0;
    int64_t flushed = 0;
    int64_t batches = 0;
    for (const AggregationBuffer& buffer : buffers_) {
      enqueued += buffer.enqueued();
      flushed += buffer.flushed();
      batches += buffer.flush_batches();
    }
    ShardMetrics& metrics = ShardMetrics::Get();
    metrics.enqueued.Add(enqueued);
    metrics.flushed.Add(flushed);
    metrics.flush_batches.Add(batches);
  }

  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
  std::vector<AggregationBuffer> buffers_;
};

}  // namespace shard_internal

// --- Sharded adjacency push (aggregated cross-shard flushes) ---------------
//
// Drop-in peer of EdgeMapPush over the same out-CSR: same functor contract,
// same sparse next-frontier result, no locks anywhere on the update path.
// options.sync is ignored (ownership makes every apply exclusive);
// options.scratch serves the round bitmap and worker buffers exactly as in
// the plain kernel.
template <typename F>
Frontier EdgeMapShardedPush(const Csr& out, const ShardedGraph& shards, Frontier& frontier,
                            F& func, const EdgeMapOptions& options,
                            EdgeCounts* counts = nullptr) {
  const int num_shards = shards.num_shards();
  ShardMetrics& shard_metrics = ShardMetrics::Get();
  shard_metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.sharded.push", frontier.Count());

  std::vector<Frontier> slices = frontier.SplitByRanges(shards.boundaries());
  edge_map_internal::SparseRound round(out.num_vertices(), options.scratch);
  Bitmap& next = round.next();
  shard_internal::BufferGrid grid(num_shards);

  // Phase 1: scatter. Task s owns shard s's destinations; everything else
  // rides an aggregation buffer.
  EdgeCounts total = CountedChunks(0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi,
                                                                   int worker) {
    auto& buffer = round.buffers()[static_cast<size_t>(worker)];
    EdgeCounts chunk;
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int s = shards.out_order()[static_cast<size_t>(idx)];
      Frontier& slice = slices[static_cast<size_t>(s)];
      if (slice.Empty()) {
        continue;  // no producer touched row s: nothing to flush either
      }
      int64_t local_updates = 0;
      int64_t remote_updates = 0;
      // Owned destinations update in place; remote ones are enqueued and
      // count as unchanged until their owner applies them in phase 2.
      auto update = [&](VertexId src, VertexId dst, float w) {
        const int t = shards.ShardOf(dst);
        if (t == s) {
          ++local_updates;
          return func.Update(src, dst, w);
        }
        ++remote_updates;
        grid.At(s, t).Enqueue(src, dst, w);
        return false;
      };
      for (const VertexId src : slice.Vertices()) {
        chunk.scanned +=
            edge_map_internal::PushNeighbors(out, src, func, update, next, buffer, chunk.relaxed);
      }
      grid.FlushRow(s);
      shard_metrics.local_updates.Add(local_updates);
      shard_metrics.remote_updates.Add(remote_updates);
    }
    return chunk;
  });

  // Phase 2: apply. Task t is the only writer of shard t's state; every
  // drained batch lands as sequential plain stores on warm owner pages.
  total += CountedChunks(0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi, int worker) {
    auto& buffer = round.buffers()[static_cast<size_t>(worker)];
    EdgeCounts chunk;
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int t = shards.in_order()[static_cast<size_t>(idx)];
      for (int s = 0; s < num_shards; ++s) {
        if (s == t) {
          continue;
        }
        grid.At(s, t).Drain([&](const ShardUpdate& update) {
          if (!func.Cond(update.dst)) {
            return;
          }
          if (func.Update(update.src, update.dst, update.weight)) {
            ++chunk.relaxed;
            if (next.TestAndSet(update.dst)) {
              buffer.push_back(update.dst);
            }
          }
        });
      }
    }
    return chunk;
  });

  grid.PublishStats();
  if (counts != nullptr) {
    *counts = total;
  }
  return round.Finish();
}

// --- Sharded adjacency pull (owner-partitioned gather) ---------------------
//
// The shared gather of EdgeMapPull (word-batched frontier probe, Cond early
// exit), chunked by shard ownership: task t gathers exactly the
// destinations shard t owns, so the write pattern matches the sharded push.
// Like EdgeMapPull it takes no EdgeMapOptions.
template <typename F>
Frontier EdgeMapShardedPull(const Csr& in, const ShardedGraph& shards, Frontier& frontier,
                            F& func, EdgeCounts* counts = nullptr) {
  const VertexId n = in.num_vertices();
  frontier.EnsureDense();
  const int num_shards = shards.num_shards();
  ShardMetrics& shard_metrics = ShardMetrics::Get();
  shard_metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.sharded.pull", frontier.Count());

  Bitmap next(n);  // ownership moves into the result; scratch cannot serve it
  const EdgeCounts total =
      CountedChunks(0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi, int /*worker*/) {
        EdgeCounts chunk;
        for (int64_t idx = lo; idx < hi; ++idx) {
          const int t = shards.in_order()[static_cast<size_t>(idx)];
          const EdgeCounts c = edge_map_internal::GatherRange(
              in, static_cast<int64_t>(shards.ShardBegin(t)),
              static_cast<int64_t>(shards.ShardEnd(t)), frontier.bitmap(), func, next);
          shard_metrics.local_updates.Add(c.relaxed);  // every pull apply is owner-local
          chunk += c;
        }
        return chunk;
      });
  if (counts != nullptr) {
    *counts = total;
  }
  return Frontier::FromBitmap(n, std::move(next), total.discovered);
}

// --- Sharded all-active scans (PageRank / SpMV) ----------------------------
//
// The dense-iteration counterpart of EdgeMapShardedPush: every source is
// active, body(src, dst, weight) must be applied exactly once per edge, and
// each destination's applies are exclusive (plain adds suffice). Same
// two-phase shape — owner applies local edges during the scatter, remote
// edges ride the buffers and land in the owner's phase-2 drain.
template <typename Body>
int64_t ShardScanBySource(const Csr& out, const ShardedGraph& shards, Body&& body) {
  const int num_shards = shards.num_shards();
  obs::TimelineSpan timeline_span("engine", "scan.sharded.src",
                                  static_cast<int64_t>(out.num_edges()));
  ShardMetrics& shard_metrics = ShardMetrics::Get();
  shard_metrics.edgemap_calls.Add(1);

  shard_internal::BufferGrid grid(num_shards);

  const EdgeCounts scatter =
      CountedChunks(0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi, int /*worker*/) {
        EdgeCounts chunk;
        for (int64_t idx = lo; idx < hi; ++idx) {
          const int s = shards.out_order()[static_cast<size_t>(idx)];
          int64_t local_updates = 0;
          int64_t remote_updates = 0;
          const int64_t v_lo = static_cast<int64_t>(shards.ShardBegin(s));
          const int64_t v_hi = static_cast<int64_t>(shards.ShardEnd(s));
          for (int64_t v = v_lo; v < v_hi; ++v) {
            const VertexId src = static_cast<VertexId>(v);
            out.ForEachNeighbor(src, [&](VertexId dst, float w) {
              const int t = shards.ShardOf(dst);
              if (t == s) {
                ++local_updates;
                body(src, dst, w);
              } else {
                ++remote_updates;
                grid.At(s, t).Enqueue(src, dst, w);
              }
            });
            chunk.scanned += static_cast<int64_t>(out.Degree(src));
          }
          grid.FlushRow(s);
          shard_metrics.local_updates.Add(local_updates);
          shard_metrics.remote_updates.Add(remote_updates);
        }
        return chunk;
      });

  // Apply: as in EdgeMapShardedPush's phase 2; the edges were counted when
  // scattered.
  ParallelForChunks(0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi, int /*worker*/) {
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int t = shards.in_order()[static_cast<size_t>(idx)];
      for (int s = 0; s < num_shards; ++s) {
        if (s == t) {
          continue;
        }
        grid.At(s, t).Drain([&](const ShardUpdate& update) {
          body(update.src, update.dst, update.weight);
        });
      }
    }
  });

  grid.PublishStats();
  return scatter.scanned;
}

// Owner-partitioned dense gather: sums[dst] += value(src, weight) over every
// in-edge, destinations ascending within each shard and each folded in list
// order — the same fold as ScanByDestination, so floating-point gather sums
// (PageRank, SpMV) are bit-identical to the plain pull backend.
template <typename Value>
int64_t ShardScanByDestination(const Csr& in, const ShardedGraph& shards, Value&& value,
                               float* sums) {
  const int num_shards = shards.num_shards();
  obs::TimelineSpan timeline_span("engine", "scan.sharded.dst",
                                  static_cast<int64_t>(in.num_edges()));
  ShardMetrics::Get().edgemap_calls.Add(1);
  const EdgeCounts total =
      CountedChunks(0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi, int /*worker*/) {
        EdgeCounts chunk;
        for (int64_t idx = lo; idx < hi; ++idx) {
          const int t = shards.in_order()[static_cast<size_t>(idx)];
          chunk.scanned += scan_internal::SumDestinations(
              in, static_cast<int64_t>(shards.ShardBegin(t)),
              static_cast<int64_t>(shards.ShardEnd(t)), value, sums);
        }
        return chunk;
      });
  return total.scanned;
}

}  // namespace egraph

#endif  // SRC_SHARD_EDGE_MAP_SHARDED_H_
