#include "src/layout/compressed_csr.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/layout/radix_sort.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

size_t VarintSize(uint64_t value) { return (std::bit_width(value | 1) + 6) / 7; }

uint8_t* PutVarint(uint64_t value, uint8_t* out) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}

const Edge& EdgeOf(const Edge& e) { return e; }
const Edge& EdgeOf(const WeightedEdge& r) { return r.edge; }

// Sizes (kWrite false) or writes at `out` (kWrite true) one chunk of vertex
// v: `count` sorted records starting at `records`. Returns its byte length.
template <bool kWrite, typename Record>
uint64_t EncodeChunk(VertexId v, const Record* records, uint32_t count, bool out_lists,
                     uint8_t* out) {
  uint64_t size = 0;
  auto put = [&size, &out](uint64_t value) {
    if constexpr (kWrite) {
      out = PutVarint(value, out);
    } else {
      size += VarintSize(value);
    }
  };
  VertexId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const Edge& e = EdgeOf(records[i]);
    const VertexId neighbor = out_lists ? e.dst : e.src;
    // The first entry re-anchors against the owning vertex, so the chunk
    // decodes with no dependency on preceding chunks.
    put(i == 0 ? ZigZag(static_cast<int64_t>(neighbor) - static_cast<int64_t>(v))
               : neighbor - prev);
    if constexpr (std::is_same_v<Record, WeightedEdge>) {
      put(std::bit_cast<uint32_t>(records[i].weight));
    }
    prev = neighbor;
  }
  return size;
}

}  // namespace

template <typename Record>
void CompressedCsr::EncodeSorted(const std::vector<Record>& sorted, bool out_lists) {
  const VertexId n = num_vertices_;
  const uint32_t ce = chunk_edges_;
  // Step 2: degrees and the chunk index layout, ceil(degree / chunk_edges)
  // chunks per vertex. The chunk index space is u32 to keep the per-vertex
  // table narrow.
  const std::vector<EdgeIndex> offsets =
      OffsetsFromSorted(sorted, n, [out_lists](const Record& r) {
        return out_lists ? EdgeOf(r).src : EdgeOf(r).dst;
      });
  degrees_.resize(n);
  chunk_begin_.resize(static_cast<size_t>(n) + 1);
  uint64_t chunk_total = 0;
  chunk_begin_[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t degree = static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
    degrees_[v] = degree;
    chunk_total += (static_cast<uint64_t>(degree) + ce - 1) / ce;
    if (chunk_total > UINT32_MAX) {
      throw std::runtime_error("compressed CSR chunk count overflows u32");
    }
    chunk_begin_[static_cast<size_t>(v) + 1] = static_cast<uint32_t>(chunk_total);
  }
  const int64_t num_chunks = static_cast<int64_t>(chunk_total);

  // Steps 3 and 5 walk the chunks in parallel; a worker range finds its
  // first owner by binary search, then walks forward.
  auto for_each_chunk = [&](auto&& body) {
    ParallelForChunks(0, num_chunks, /*grain=*/0, [&](int64_t lo, int64_t hi, int) {
      VertexId v = OwnerOf(lo);
      for (int64_t c = lo; c < hi; ++c) {
        while (chunk_begin_[static_cast<size_t>(v) + 1] <= c) {
          ++v;
        }
        const uint32_t k = static_cast<uint32_t>(c - chunk_begin_[v]);
        body(c, v, sorted.data() + offsets[v] + static_cast<uint64_t>(k) * ce,
             ChunkSizeOf(v, k));
      }
    });
  };

  // Step 3: every chunk's byte length; step 4: their prefix sum.
  chunk_bytes_.assign(static_cast<size_t>(num_chunks) + 1, 0);
  for_each_chunk([&](int64_t c, VertexId v, const Record* records, uint32_t count) {
    chunk_bytes_[static_cast<size_t>(c)] =
        EncodeChunk<false>(v, records, count, out_lists, nullptr);
  });
  bytes_.resize(ParallelExclusiveScan(chunk_bytes_));

  // Step 5: each chunk encodes in place at its final offset.
  for_each_chunk([&](int64_t c, VertexId v, const Record* records, uint32_t count) {
    EncodeChunk<true>(v, records, count, out_lists,
                      bytes_.data() + chunk_bytes_[static_cast<size_t>(c)]);
  });
}

CompressedCsr CompressedCsr::Build(const EdgeList& graph, EdgeDirection direction,
                                   double* seconds, uint32_t chunk_edges) {
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.compressed",
                                  static_cast<int64_t>(graph.edges().size()));
  CompressedCsr out;
  const VertexId n = graph.num_vertices();
  const bool out_lists = direction == EdgeDirection::kOut;
  out.num_vertices_ = n;
  out.num_edges_ = graph.edges().size();
  out.has_weights_ = graph.has_weights();
  out.chunk_edges_ = chunk_edges == 0 ? kDefaultChunkEdges : chunk_edges;

  // Step 1: one stable sort on (vertex << b) | neighbor, b bits per id.
  const int b = RadixKeyBits(n);
  auto key = [b, out_lists](const Edge& e) {
    const uint64_t vertex = out_lists ? e.src : e.dst;
    return (vertex << b) | (out_lists ? e.dst : e.src);
  };
  if (!out.has_weights_) {
    out.EncodeSorted(ParallelRadixSort<Edge>(graph.edges(), 2 * b, key), out_lists);
  } else {
    out.EncodeSorted(RadixSortWeightedEdges(graph, 2 * b, key), out_lists);
  }
  if (seconds != nullptr) {
    *seconds = timer.Seconds();
  }
  return out;
}

bool CompressedCsr::Validate(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  const size_t n = num_vertices_;
  if (chunk_edges_ == 0) {
    return fail("chunk_edges is zero");
  }
  if (degrees_.size() != n || chunk_begin_.size() != n + 1) {
    return fail("vertex table sizes do not match num_vertices");
  }
  if (chunk_begin_[0] != 0) {
    return fail("chunk_begin does not start at zero");
  }
  const size_t num_chunks = n == 0 ? 0 : chunk_begin_[n];
  if (chunk_bytes_.size() != num_chunks + 1) {
    return fail("chunk_bytes size does not match chunk count");
  }
  if (chunk_bytes_[num_chunks] != bytes_.size()) {
    return fail("chunk_bytes does not span the byte stream");
  }
  uint64_t edge_total = 0;
  for (size_t v = 0; v < n; ++v) {
    if (chunk_begin_[v] > chunk_begin_[v + 1]) {
      return fail("chunk_begin is not monotone at vertex " + std::to_string(v));
    }
    const uint64_t chunks = chunk_begin_[v + 1] - chunk_begin_[v];
    const uint64_t expected =
        (static_cast<uint64_t>(degrees_[v]) + chunk_edges_ - 1) / chunk_edges_;
    if (chunks != expected) {
      return fail("chunk count disagrees with degree at vertex " + std::to_string(v));
    }
    edge_total += degrees_[v];
  }
  if (edge_total != num_edges_) {
    return fail("degree sum does not equal num_edges");
  }

  // Owner per chunk for the parallel pass below — derived by one serial
  // walk, never trusted from the input.
  std::vector<VertexId> owner_of(num_chunks);
  for (size_t v = 0; v < n; ++v) {
    for (uint32_t c = chunk_begin_[v]; c < chunk_begin_[v + 1]; ++c) {
      owner_of[c] = static_cast<VertexId>(v);
    }
  }

  // Checked parallel decode: every chunk must consume exactly its byte span
  // and produce exactly its entry count, with every neighbor in range.
  std::vector<uint8_t> chunk_ok(num_chunks, 1);
  ParallelFor(0, static_cast<int64_t>(num_chunks), [&](int64_t c) {
    const size_t ci = static_cast<size_t>(c);
    if (chunk_bytes_[ci] > chunk_bytes_[ci + 1] || chunk_bytes_[ci + 1] > bytes_.size()) {
      chunk_ok[ci] = 0;
      return;
    }
    const VertexId owner = owner_of[ci];
    const uint32_t k = static_cast<uint32_t>(c - chunk_begin_[owner]);
    const uint64_t consumed = static_cast<uint64_t>(k) * chunk_edges_;
    const uint64_t size =
        std::min<uint64_t>(chunk_edges_, degrees_[owner] - consumed);
    const uint8_t* cursor = bytes_.data() + chunk_bytes_[ci];
    const uint8_t* end = bytes_.data() + chunk_bytes_[ci + 1];
    VertexId neighbor = 0;
    for (uint64_t i = 0; i < size; ++i) {
      uint64_t raw = 0;
      if (!DecodeVarintChecked(cursor, end, &raw)) {
        chunk_ok[ci] = 0;
        return;
      }
      int64_t candidate;
      if (i == 0) {
        const int64_t delta =
            static_cast<int64_t>(raw >> 1) ^ -static_cast<int64_t>(raw & 1);
        candidate = static_cast<int64_t>(owner) + delta;
      } else {
        candidate = static_cast<int64_t>(neighbor) + static_cast<int64_t>(raw);
      }
      if (candidate < 0 || candidate >= static_cast<int64_t>(num_vertices_)) {
        chunk_ok[ci] = 0;
        return;
      }
      neighbor = static_cast<VertexId>(candidate);
      if (has_weights_) {
        uint64_t weight_bits = 0;
        if (!DecodeVarintChecked(cursor, end, &weight_bits) ||
            weight_bits > 0xFFFFFFFFULL) {
          chunk_ok[ci] = 0;
          return;
        }
      }
    }
    if (cursor != end) {
      chunk_ok[ci] = 0;
    }
  });
  for (size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_ok[c]) {
      return fail("chunk " + std::to_string(c) + " failed checked decode");
    }
  }
  return true;
}

}  // namespace egraph
