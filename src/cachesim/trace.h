// Memory-access trace replayers: feed the CacheModel the same access pattern
// each layout's inner loop performs, so LLC miss ratios can be reported
// without hardware counters.
//
// Every replay distinguishes the three access classes the paper identifies
// (section 5): fetching an edge, fetching source-vertex metadata, fetching
// destination-vertex metadata. `meta_bytes` is the per-vertex metadata
// footprint: ~1 byte for BFS (a cache line covers 64 vertices, per the
// paper) and ~10 bytes for Pagerank (a cache line fits ~6 vertices).
//
// Arrays live at disjoint virtual bases; addresses never collide across
// arrays. Replays are sequential (single simulated core): ratios, not
// throughput, are the output.
#ifndef SRC_CACHESIM_TRACE_H_
#define SRC_CACHESIM_TRACE_H_

#include "src/cachesim/cache_model.h"
#include "src/graph/edge_list.h"
#include "src/layout/csr.h"
#include "src/layout/grid.h"

namespace egraph {

// --- Algorithm-pass traces (paper Table 4) --------------------------------

// One edge-centric pass over the edge array: streamed edges, random vertex
// metadata.
void TraceEdgeArrayPass(CacheModel& cache, const EdgeList& graph, uint32_t meta_bytes);

// One vertex-centric pass over an out-CSR: source metadata cached per
// vertex, streamed neighbor arrays, random destination metadata.
void TraceAdjacencyPass(CacheModel& cache, const Csr& out, uint32_t meta_bytes);

// One grid pass (row-major cells): while a cell is processed both endpoint
// blocks fit in cache, which is the mechanism behind the paper's halved miss
// ratio.
void TraceGridPass(CacheModel& cache, const Grid& grid, uint32_t meta_bytes);

// --- Pre-processing traces (paper Table 2) --------------------------------

// Dynamic adjacency building: streamed input, per-vertex append targets
// scattered across the heap.
void TraceDynamicBuild(CacheModel& cache, const EdgeList& graph);

// Count sort: counting pass (random degree increments) + placement pass
// (random scatter through per-vertex cursors).
void TraceCountSortBuild(CacheModel& cache, const EdgeList& graph);

// Radix sort: top-level digit split with 2^digit_bits sequentially-advancing
// bucket cursors, then per-bucket LSD passes.
void TraceRadixSortBuild(CacheModel& cache, const EdgeList& graph, int digit_bits = 8);

}  // namespace egraph

#endif  // SRC_CACHESIM_TRACE_H_
