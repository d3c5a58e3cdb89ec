// The engine's one layout x direction switch. Algorithms hand their RunConfig
// and a functor to EdgeMap (frontier rounds), a per-edge value to Scan
// (all-active sum rounds) or a per-edge body to ScanStoredEdges (one pass
// over every stored edge); only here is a kernel picked: a stored-edge scan
// (the edge array, or the grid's row-major cells or owned columns, picked by
// RunStoredEdgeScan for EdgeMap, Scan and ScanStoredEdges alike), or an
// adjacency source (plain CSR, compressed CSR, or shards over the plain CSR)
// in the push or pull direction, with push-pull decided per round.
#ifndef SRC_ENGINE_DISPATCH_H_
#define SRC_ENGINE_DISPATCH_H_

#include <cstdint>
#include <vector>

#include "src/engine/edge_map.h"
#include "src/engine/frontier.h"
#include "src/engine/graph_handle.h"
#include "src/engine/scan.h"
#include "src/graph/stats.h"
#include "src/obs/metrics.h"
#include "src/shard/edge_map_sharded.h"
#include "src/util/atomics.h"

namespace egraph {

// The one switch among the stored-edge orders. A grid under Sync::kLockFree
// runs owned columns with plain Update: one worker writes each destination
// block (paper section 6.1.2), through its own copy of func, since
// ScanGridColumnOwned copies its body per worker. Every other case runs the
// edge array, or the grid's row-major cells, with the updates of
// WithSharedUpdate. bind(update) returns the per-edge body that applies
// `update`. Returns the scan's edge counts.
template <typename F, typename Bind>
EdgeCounts RunStoredEdgeScan(GraphHandle& handle, Layout layout, Sync sync, F& func,
                             Bind&& bind) {
  if (layout == Layout::kGrid && sync == Sync::kLockFree) {
    auto owned = [func](VertexId src, VertexId dst, float w) mutable {
      return func.Update(src, dst, w);
    };
    return ScanGridColumnOwned(handle.grid(), bind(owned));
  }
  return edge_map_internal::WithSharedUpdate(func, sync, &handle.locks(), [&](auto& update) {
    return layout == Layout::kGrid ? ScanGridRowMajor(handle.grid(), bind(update))
                                   : ScanEdgeArray(handle.edges(), bind(update));
  });
}

// EdgeMap over the edge array or the grid: always a full scan (paper
// section 4.1). Each edge whose source is active and whose destination
// passes Cond applies the update and, when that changes the destination,
// marks it in the next frontier. `relaxed` counts those changes and
// `discovered` the marked vertices.
template <typename F>
Frontier EdgeMapStoredEdges(GraphHandle& handle, Frontier& frontier, F& func,
                            const RunConfig& config, EdgeCounts* counts) {
  const VertexId n = handle.num_vertices();
  frontier.EnsureDense();
  Bitmap next(n);
  EdgeCounts total =
      RunStoredEdgeScan(handle, config.layout, config.sync, func, [&](auto& update) {
        return [&frontier, &func, &next, update](VertexId src, VertexId dst, float w) mutable {
          if (!frontier.Contains(src) || !func.Cond(dst) || !update(src, dst, w)) {
            return false;
          }
          next.Set(dst);
          return true;
        };
      });
  total.discovered = next.Count();
  if (counts != nullptr) {
    *counts = total;
  }
  return Frontier::FromBitmap(n, std::move(next), total.discovered);
}

// One EdgeMap round under config's layout, direction and sync.
// Locks come from the handle; `scratch` (optional) carries round state
// across calls. `used` (optional) receives the direction that ran: push or
// pull on the vertex-centric layouts (push-pull resolved for this round),
// config.direction on the edge array and grid, which ignore it. `counts`
// (optional) receives the call's edges scanned and relaxed: the call's own
// work, whatever else runs concurrently.
template <typename F>
Frontier EdgeMap(GraphHandle& handle, Frontier& frontier, F& func, const RunConfig& config,
                 EdgeMapScratch* scratch = nullptr, Direction* used = nullptr,
                 EdgeCounts* counts = nullptr) {
  obs::EngineCounters::Get().edgemap_calls.Add(1);
  const EdgeMapOptions options{config.sync, &handle.locks(), scratch};
  Direction direction = config.direction;
  if (direction == Direction::kPushPull && IsVertexCentric(config.layout)) {
    const bool pull = config.layout == Layout::kCompressed
                          ? PullPays(handle.compressed_out(), frontier, config.pushpull)
                          : PullPays(handle.out_csr(), frontier, config.pushpull);
    direction = pull ? Direction::kPull : Direction::kPush;
  }
  if (used != nullptr) {
    *used = direction;
  }
  const bool pull = direction == Direction::kPull;
  switch (config.layout) {
    case Layout::kEdgeArray:
    case Layout::kGrid:
      return EdgeMapStoredEdges(handle, frontier, func, config, counts);
    case Layout::kAdjacency:
      return pull ? EdgeMapPull(handle.in_csr(), frontier, func, counts)
                  : EdgeMapPush(handle.out_csr(), frontier, func, options, counts);
    case Layout::kCompressed:
      return pull ? EdgeMapPull(handle.compressed_in(), frontier, func, counts)
                  : EdgeMapPush(handle.compressed_out(), frontier, func, options, counts);
    case Layout::kSharded:
      return pull ? EdgeMapShardedPull(handle.in_csr(), handle.sharded(), frontier, func, counts)
                  : EdgeMapShardedPush(handle.out_csr(), handle.sharded(), frontier, func,
                                       options, counts);
  }
  return Frontier::None(handle.num_vertices());
}

// Whether an EdgeMap round under `config` costs in proportion to its
// frontier: push and push-pull on the vertex-centric layouts. The edge array,
// the grid and pure pull scan O(|E|) per round whatever the frontier, so
// there more, smaller rounds only multiply the scans (bucketed SSSP keeps a
// single bucket).
inline bool RoundCostFollowsFrontier(const RunConfig& config) {
  return IsVertexCentric(config.layout) && config.direction != Direction::kPull;
}

// One all-active pass, sums[dst] += value(src, weight) over every edge
// (PageRank's and SpMV's y += A^T x), under config's layout, direction and
// sync. Pull on the vertex-centric layouts folds each destination's
// in-edges in list order on one thread, so float sums are deterministic and
// match across plain, compressed and sharded lists. The grid's owned
// columns (Sync::kLockFree), both phases of the sharded push and a call
// that runs alone (WithSharedUpdate) add plainly; everywhere else
// Sync::kLocks adds under dst's striped lock and the other modes add
// atomically. Push-pull scans by source. Returns the edges scanned.
template <typename Value>
int64_t Scan(GraphHandle& handle, const RunConfig& config, Value value, float* sums) {
  struct Add {
    Value value;
    float* sums;
    void Update(VertexId src, VertexId dst, float w) const { sums[dst] += value(src, w); }
    void UpdateAtomic(VertexId src, VertexId dst, float w) const {
      AtomicAdd(&sums[dst], value(src, w));
    }
  } add{value, sums};
  const auto by_source = [&](const auto& out) {
    return edge_map_internal::WithSharedUpdate(
               add, config.sync, &handle.locks(),
               [&](auto& shared) { return ScanBySource(out, shared); })
        .scanned;
  };
  const bool pull = config.direction == Direction::kPull;
  switch (config.layout) {
    case Layout::kEdgeArray:
    case Layout::kGrid:
      return RunStoredEdgeScan(handle, config.layout, config.sync, add,
                               [](auto& update) -> auto& { return update; })
          .scanned;
    case Layout::kAdjacency:
      return pull ? ScanByDestination(handle.in_csr(), value, sums) : by_source(handle.out_csr());
    case Layout::kCompressed:
      return pull ? ScanByDestination(handle.compressed_in(), value, sums)
                  : by_source(handle.compressed_out());
    case Layout::kSharded:
      return pull ? ShardScanByDestination(handle.in_csr(), handle.sharded(), value, sums)
                  : ShardScanBySource(handle.out_csr(), handle.sharded(),
                                      [add](VertexId src, VertexId dst, float w) {
                                        add.Update(src, dst, w);
                                      });
  }
  return 0;
}

// Every stored edge once, body(src, dst, weight), concurrently, on any
// layout: the edge array or the grid's row-major cells, or, on the
// vertex-centric layouts, the lists the run prepared walked by source (the
// out-lists, or the in-lists under pull; sharded walks the plain CSR). For
// bodies that are not a per-destination update, such as WCC's union of both
// endpoints: no destination ownership or lock covers such a body, so it
// synchronizes its own writes and takes no update from RunStoredEdgeScan.
// Returns the edges scanned and, for a body that returns whether it changed
// something, those changes as relaxed.
template <typename Body>
EdgeCounts ScanStoredEdges(GraphHandle& handle, const RunConfig& config, Body&& body) {
  // An in-list holds each edge under its destination: hand it to body the
  // right way round.
  auto reversed = [&body](VertexId dst, VertexId src, float w) { return body(src, dst, w); };
  const bool pull = config.direction == Direction::kPull;
  switch (config.layout) {
    case Layout::kEdgeArray:
    case Layout::kGrid: {
      struct NoUpdate {
        void Update(VertexId, VertexId, float) {}
        void UpdateAtomic(VertexId, VertexId, float) {}
      } none;
      return RunStoredEdgeScan(handle, config.layout, Sync::kAtomics, none,
                               [&body](auto& /*update*/) -> auto& { return body; });
    }
    case Layout::kAdjacency:
    case Layout::kSharded:
      return pull ? ScanBySource(handle.in_csr(), reversed) : ScanBySource(handle.out_csr(), body);
    case Layout::kCompressed:
      return pull ? ScanBySource(handle.compressed_in(), reversed)
                  : ScanBySource(handle.compressed_out(), body);
  }
  return {};
}

// Out-degree of every vertex, read from the layout's out-lists when they
// are prepared and counted from the edge list otherwise (the edge array has
// no pre-processing, so the count is part of the algorithm's own work).
inline std::vector<uint32_t> OutDegrees(const GraphHandle& handle, Layout layout) {
  const auto from = [&handle](const auto& out) {
    std::vector<uint32_t> degree(handle.num_vertices());
    VertexMap(handle.num_vertices(), [&](VertexId v) { degree[v] = out.Degree(v); });
    return degree;
  };
  if (layout == Layout::kCompressed && handle.has_compressed_out()) {
    return from(handle.compressed_out());
  }
  if ((layout == Layout::kAdjacency || layout == Layout::kSharded) && handle.has_out_csr()) {
    return from(handle.out_csr());
  }
  return OutDegrees(handle.edges());
}

}  // namespace egraph

#endif  // SRC_ENGINE_DISPATCH_H_
