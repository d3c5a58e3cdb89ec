// Whole-graph scan primitives: no frontier bookkeeping, just the layout's
// native iteration order. Algorithms where every vertex is active in every
// round (PageRank, SpMV) reach them through Scan in src/engine/dispatch.h.
//
// The three stored-edge scans (the edge array, the grid's row-major cells
// and the grid's owned columns) are the engine's only loops over stored
// edges: EdgeMap on the edge array and the grid, Scan and ScanStoredEdges
// all run them, and one function in dispatch.h picks among them.
//
// The by-source and by-destination scans are written once over the
// adjacency-source surface (src/layout/csr.h), like the EdgeMap kernels,
// and serve plain and compressed lists alike; the sharded dense scan reuses
// the destination fold.
//
// In the stored-edge scans and the by-source scan, a body that returns
// whether it changed something (EdgeMap's, WCC's union) has those changes
// counted as relaxed; a body that returns nothing costs no count.
//
// All scans iterate in fixed-size chunks (256 vertices, 4096 edges, or one
// grid cell; whole grid columns when a column is owned) through the counted
// chunk loop (CountedChunks in edge_map.h), and each returns the edges it
// scanned: the count costs one add per chunk, never one per edge.
#ifndef SRC_ENGINE_SCAN_H_
#define SRC_ENGINE_SCAN_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/engine/edge_map.h"
#include "src/graph/edge_list.h"
#include "src/layout/grid.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"

namespace egraph {

namespace scan_internal {

// sums[dst] += value(src, weight) over the in-edges of each destination in
// [lo, hi), folded in list order in a register and stored once per
// destination. Returns the number of edges walked.
template <typename Source, typename Value>
int64_t SumDestinations(const Source& in, int64_t lo, int64_t hi, Value& value, float* sums) {
  int64_t scanned = 0;
  for (int64_t v = lo; v < hi; ++v) {
    const VertexId dst = static_cast<VertexId>(v);
    float sum = sums[dst];
    in.ForEachNeighbor(dst, [&value, &sum](VertexId src, float w) { sum += value(src, w); });
    sums[dst] = sum;
    scanned += static_cast<int64_t>(in.Degree(dst));
  }
  return scanned;
}

// body(src, dst, weight) for one stored edge, adding 1 to `relaxed` when
// body returns true.
template <typename Body>
inline void Visit(Body& body, VertexId src, VertexId dst, float w, int64_t& relaxed) {
  if constexpr (std::is_void_v<decltype(body(src, dst, w))>) {
    body(src, dst, w);
  } else if (body(src, dst, w)) {
    ++relaxed;
  }
}

// Visits every edge of grid cell (i, j), adding the cell's edge count to
// counts.scanned first: the cell loop of every grid scan.
template <typename Body>
void ScanCell(const Grid& grid, uint32_t i, uint32_t j, Body& body, EdgeCounts& counts) {
  const auto cell = grid.Cell(i, j);
  const auto weights = grid.CellWeights(i, j);
  counts.scanned += static_cast<int64_t>(cell.size());
  for (size_t k = 0; k < cell.size(); ++k) {
    Visit(body, cell[k].src, cell[k].dst, weights.empty() ? 1.0f : weights[k], counts.relaxed);
  }
}

}  // namespace scan_internal

// Edge-centric scan: body(src, dst, weight) for every edge, 4096 edges per
// chunk (per-edge cost is uniform, so these are equal-cost chunks). Caller
// synchronizes destination writes (atomics/locks). Like every stored-edge
// scan, returns the edges scanned and relaxed.
template <typename Body>
EdgeCounts ScanEdgeArray(const EdgeList& graph, Body&& body) {
  const auto& edges = graph.edges();
  obs::TimelineSpan timeline_span("engine", "scan.edgearray",
                                  static_cast<int64_t>(edges.size()));
  return CountedChunks(0, static_cast<int64_t>(edges.size()), /*grain=*/4096,
                       [&](int64_t lo, int64_t hi, int /*worker*/) {
                         EdgeCounts chunk{.scanned = hi - lo};
                         for (int64_t i = lo; i < hi; ++i) {
                           const Edge& e = edges[static_cast<size_t>(i)];
                           scan_internal::Visit(body, e.src, e.dst,
                                                graph.EdgeWeight(static_cast<EdgeIndex>(i)),
                                                chunk.relaxed);
                         }
                         return chunk;
                       });
}

// Vertex-centric push scan over an out-adjacency source: body(src, dst,
// weight) for every edge, 256 sources per chunk. Caller synchronizes
// destination writes. Like the stored-edge scans, returns the edges
// scanned and relaxed.
template <typename Source, typename Body>
EdgeCounts ScanBySource(const Source& out, Body&& body) {
  obs::TimelineSpan timeline_span("engine", "scan.src", static_cast<int64_t>(out.num_edges()));
  return CountedChunks(
      0, static_cast<int64_t>(out.num_vertices()), /*grain=*/256,
      [&](int64_t lo, int64_t hi, int /*worker*/) {
        EdgeCounts chunk;
        for (int64_t v = lo; v < hi; ++v) {
          const VertexId src = static_cast<VertexId>(v);
          out.ForEachNeighbor(src, [&body, &chunk, src](VertexId dst, float w) {
            scan_internal::Visit(body, src, dst, w, chunk.relaxed);
          });
          chunk.scanned += static_cast<int64_t>(out.Degree(src));
        }
        return chunk;
      });
}

// Vertex-centric pull scan over an in-adjacency source: sums[dst] +=
// value(src, weight) over every in-edge, 256 destinations per chunk, each
// destination folded on one thread in list order, so no write is shared.
// Compressed lists decode in ascending order, so they fold in the same
// order as a sorted plain CSR and float sums match it bit for bit.
template <typename Source, typename Value>
int64_t ScanByDestination(const Source& in, Value&& value, float* sums) {
  obs::TimelineSpan timeline_span("engine", "scan.dst", static_cast<int64_t>(in.num_edges()));
  const EdgeCounts total = CountedChunks(
      0, static_cast<int64_t>(in.num_vertices()), /*grain=*/256,
      [&](int64_t lo, int64_t hi, int /*worker*/) {
        return EdgeCounts{.scanned = scan_internal::SumDestinations(in, lo, hi, value, sums)};
      });
  return total.scanned;
}

// Grid scan, row-major cells, one cell per chunk: body(src, dst, weight);
// best source-block locality; caller synchronizes destination writes.
template <typename Body>
EdgeCounts ScanGridRowMajor(const Grid& grid, Body&& body) {
  const uint32_t blocks = grid.num_blocks();
  obs::TimelineSpan timeline_span("engine", "scan.grid.rows");
  return CountedChunks(0, static_cast<int64_t>(blocks) * blocks, /*grain=*/1,
                       [&](int64_t lo, int64_t hi, int /*worker*/) {
                         EdgeCounts chunk;
                         for (int64_t c = lo; c < hi; ++c) {
                           scan_internal::ScanCell(grid, static_cast<uint32_t>(c / blocks),
                                                   static_cast<uint32_t>(c % blocks), body,
                                                   chunk);
                         }
                         return chunk;
                       });
}

// Grid scan with column ownership: each thread exclusively owns the
// destination blocks it processes, so body may write dst state without
// synchronization (the paper's lock-removal-by-ownership, section 6.1.2).
// Columns cannot be split, so they dispatch heaviest first
// (Grid::column_order): the pool preloads grain-1 items round-robin, which
// turns the sorted order into a static greedy assignment, and stealing
// mops up the tail.
template <typename Body>
EdgeCounts ScanGridColumnOwned(const Grid& grid, Body&& body) {
  const uint32_t blocks = grid.num_blocks();
  const std::vector<uint32_t>& columns = grid.column_order();
  obs::TimelineSpan timeline_span("engine", "scan.grid.cols");
  return CountedChunks(
      0, static_cast<int64_t>(blocks), /*grain=*/1, [&](int64_t lo, int64_t hi, int /*worker*/) {
        // A worker-local copy keeps body's captures in registers through the
        // cell loops (PageRank's hot loop on the grid) instead of behind a
        // pointer.
        auto owner = body;
        EdgeCounts chunk;
        for (int64_t idx = lo; idx < hi; ++idx) {
          const uint32_t j = columns[static_cast<size_t>(idx)];
          for (uint32_t i = 0; i < blocks; ++i) {
            scan_internal::ScanCell(grid, i, j, owner, chunk);
          }
        }
        return chunk;
      });
}

// Parallel map over all vertices: body(v).
template <typename Body>
void VertexMap(VertexId num_vertices, Body&& body) {
  ParallelFor(0, static_cast<int64_t>(num_vertices),
              [&](int64_t v) { body(static_cast<VertexId>(v)); });
}

}  // namespace egraph

#endif  // SRC_ENGINE_SCAN_H_
