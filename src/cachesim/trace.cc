#include "src/cachesim/trace.h"

#include <bit>
#include <vector>

namespace egraph {
namespace {

// Disjoint virtual address regions; replays never allocate real memory at
// these addresses.
constexpr uint64_t kEdgesBase = 0x1'0000'0000ULL;
constexpr uint64_t kMetaBase = 0x20'0000'0000ULL;
constexpr uint64_t kOffsetsBase = 0x30'0000'0000ULL;
constexpr uint64_t kNeighborsBase = 0x40'0000'0000ULL;
constexpr uint64_t kScratchBase = 0x50'0000'0000ULL;
constexpr uint64_t kCursorBase = 0x60'0000'0000ULL;
constexpr uint64_t kHeapBase = 0x1000'0000'0000ULL;

uint64_t MetaAddr(VertexId v, uint32_t meta_bytes) {
  return kMetaBase + static_cast<uint64_t>(v) * meta_bytes;
}

}  // namespace

void TraceEdgeArrayPass(CacheModel& cache, const EdgeList& graph, uint32_t meta_bytes) {
  const auto& edges = graph.edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    cache.Access(MetaAddr(edges[i].src, meta_bytes));
    cache.Access(MetaAddr(edges[i].dst, meta_bytes));
  }
}

void TraceAdjacencyPass(CacheModel& cache, const Csr& out, uint32_t meta_bytes) {
  for (VertexId v = 0; v < out.num_vertices(); ++v) {
    cache.Access(kOffsetsBase + static_cast<uint64_t>(v) * sizeof(EdgeIndex));
    const auto neighbors = out.Neighbors(v);
    if (neighbors.empty()) {
      continue;
    }
    // Source metadata is fetched once and stays register/L1-resident for the
    // whole per-vertex loop.
    cache.Access(MetaAddr(v, meta_bytes));
    const uint64_t position = out.offsets()[v];
    for (size_t j = 0; j < neighbors.size(); ++j) {
      cache.Access(kNeighborsBase + (position + j) * sizeof(VertexId));
      cache.Access(MetaAddr(neighbors[j], meta_bytes));
    }
  }
}

void TraceGridPass(CacheModel& cache, const Grid& grid, uint32_t meta_bytes) {
  const uint32_t blocks = grid.num_blocks();
  for (uint32_t i = 0; i < blocks; ++i) {
    for (uint32_t j = 0; j < blocks; ++j) {
      const auto cell = grid.Cell(i, j);
      const uint64_t base = grid.cell_offsets()[grid.CellIndex(i, j)];
      for (size_t k = 0; k < cell.size(); ++k) {
        cache.Access(kEdgesBase + (base + k) * sizeof(Edge));
        cache.Access(MetaAddr(cell[k].src, meta_bytes));
        cache.Access(MetaAddr(cell[k].dst, meta_bytes));
      }
    }
  }
}

void TraceDynamicBuild(CacheModel& cache, const EdgeList& graph) {
  const auto& edges = graph.edges();
  // Each vertex's growable array lives in its own heap neighborhood; appends
  // to a vertex are adjacent, appends across vertices are far apart.
  std::vector<uint32_t> lengths(graph.num_vertices(), 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    const VertexId v = edges[i].src;
    // Vector header (size/capacity/pointer) then the append slot.
    cache.Access(kOffsetsBase + static_cast<uint64_t>(v) * 16);
    cache.Access(kHeapBase + static_cast<uint64_t>(v) * (1u << 16) +
                 static_cast<uint64_t>(lengths[v]) * sizeof(VertexId));
    ++lengths[v];
  }
}

void TraceCountSortBuild(CacheModel& cache, const EdgeList& graph) {
  const auto& edges = graph.edges();
  // Pass 1: degree counting (random increments).
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    cache.Access(kCursorBase + static_cast<uint64_t>(edges[i].src) * sizeof(uint32_t));
  }
  // Offsets scan: sequential over V.
  cache.AccessRange(kOffsetsBase, (static_cast<uint64_t>(graph.num_vertices()) + 1) *
                                      sizeof(EdgeIndex));
  // Pass 2: placement through per-vertex cursors (random scatter).
  std::vector<uint64_t> degree(graph.num_vertices(), 0);
  for (const Edge& e : edges) {
    ++degree[e.src];
  }
  std::vector<uint64_t> cursor(graph.num_vertices() + 1, 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    cursor[v + 1] = cursor[v] + degree[v];
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    const VertexId v = edges[i].src;
    cache.Access(kCursorBase + static_cast<uint64_t>(v) * sizeof(uint64_t));
    cache.Access(kNeighborsBase + cursor[v] * sizeof(VertexId));
    ++cursor[v];
  }
}

void TraceRadixSortBuild(CacheModel& cache, const EdgeList& graph, int digit_bits) {
  const auto& edges = graph.edges();
  const uint64_t n = graph.num_vertices();
  const int key_bits = n <= 1 ? 1 : std::bit_width(n - 1);
  const uint32_t radix = 1u << digit_bits;
  const uint32_t mask = radix - 1;
  const int top_shift = ((key_bits - 1) / digit_bits) * digit_bits;

  // Working key array; mirrors the real sort's record movement without
  // simulating full recursion bookkeeping.
  std::vector<VertexId> keys(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    keys[i] = edges[i].src;
  }

  bool in_primary = true;
  std::vector<VertexId> scratch(keys.size());
  for (int shift = top_shift; shift >= 0; shift -= digit_bits) {
    const uint64_t read_base = in_primary ? kEdgesBase : kScratchBase;
    const uint64_t write_base = in_primary ? kScratchBase : kEdgesBase;
    std::vector<uint64_t> counts(radix, 0);
    for (const VertexId key : keys) {
      ++counts[(key >> shift) & mask];
    }
    std::vector<uint64_t> cursors(radix, 0);
    uint64_t running = 0;
    for (uint32_t d = 0; d < radix; ++d) {
      cursors[d] = running;
      running += counts[d];
    }
    // Histogram pass: sequential read (the counter array is tiny and always
    // cached, so it is not traced).
    for (size_t i = 0; i < keys.size(); ++i) {
      cache.Access(read_base + i * sizeof(Edge));
    }
    // Scatter pass: sequential read, bucket-sequential write.
    const std::vector<VertexId>& src = keys;
    for (size_t i = 0; i < src.size(); ++i) {
      cache.Access(read_base + i * sizeof(Edge));
      const uint32_t d = (src[i] >> shift) & mask;
      cache.Access(write_base + cursors[d] * sizeof(Edge));
      scratch[cursors[d]] = src[i];
      ++cursors[d];
    }
    keys.swap(scratch);
    in_primary = !in_primary;
  }
}

}  // namespace egraph
