// Delta-compressed adjacency lists with chunked parallel decode (the
// Ligra+/GBBS "compressed CSR" technique plus KaMinPar-style high-degree
// neighborhood splitting): per-vertex neighbor lists are sorted,
// delta-encoded and varint-packed, and every list is cut into fixed-size
// chunks of at most chunk_edges() entries. Each chunk carries its own byte
// offset and re-anchors its first neighbor against the owning vertex, so
// every chunk encodes, decodes and validates independently of the ones
// before it (Build and Validate split their parallel work by chunk).
// The EdgeMap kernels walk a list whole, like a plain CSR list: they chunk
// work by vertex count (src/engine/edge_map.h), never inside a list.
//
// Encoding per chunk of vertex v covering sorted neighbors n_a..n_b:
//   zigzag-varint(n_a - v), then varint(n_i - n_{i-1}) for i in (a, b].
// When the edge list is weighted, each neighbor varint is followed by the
// varint of its float weight's bit pattern (interleaved weight stream), so
// weighted traversals see real weights instead of silently degrading to 1.0.
//
// Only three tables are kept — per-vertex degrees (u32), per-vertex first
// chunk index (u32), and the per-chunk byte seek table (u64). Everything
// else (chunk owner, chunk size, edge offsets) is derived, which keeps the
// metadata small enough that low-degree graphs still compress below the
// plain CSR footprint.
#ifndef SRC_LAYOUT_COMPRESSED_CSR_H_
#define SRC_LAYOUT_COMPRESSED_CSR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/graph/types.h"
#include "src/layout/csr_builder.h"

namespace egraph {

class CompressedCsr {
 public:
  // Default split threshold: lists up to this size are one chunk; anything
  // larger is cut into ceil(degree / chunk_edges) independently decodable
  // chunks. 128 entries keeps a chunk's decode state in registers while
  // still giving a 1M-degree hub ~8k parallel work units.
  static constexpr uint32_t kDefaultChunkEdges = 128;

  CompressedCsr() = default;

  // Builds the `direction` lists of `graph` straight from the edge list:
  // one stable radix sort of the edges on (vertex, neighbor), a size pass
  // that measures every chunk, a prefix sum, and an encode pass that writes
  // each chunk in place in the final stream. Weights, when present, ride
  // along with their edges, so duplicate (vertex, neighbor) pairs keep their
  // input order. `seconds` receives the build time. Throws if the chunk
  // count would overflow the u32 chunk index space (needs > ~500G edges at
  // the default chunk size).
  static CompressedCsr Build(const EdgeList& graph, EdgeDirection direction,
                             double* seconds = nullptr,
                             uint32_t chunk_edges = kDefaultChunkEdges);

  VertexId num_vertices() const { return num_vertices_; }
  EdgeIndex num_edges() const { return num_edges_; }
  bool has_weights() const { return has_weights_; }
  uint32_t chunk_edges() const { return chunk_edges_; }
  int64_t num_chunks() const {
    return num_vertices_ == 0 ? 0 : static_cast<int64_t>(chunk_begin_[num_vertices_]);
  }

  uint32_t Degree(VertexId v) const { return degrees_[v]; }

  // Chunk index range [ChunkBegin(v), ChunkEnd(v)) owned by vertex v.
  int64_t ChunkBegin(VertexId v) const { return static_cast<int64_t>(chunk_begin_[v]); }
  int64_t ChunkEnd(VertexId v) const {
    return static_cast<int64_t>(chunk_begin_[static_cast<size_t>(v) + 1]);
  }
  uint32_t NumChunksOf(VertexId v) const {
    return chunk_begin_[static_cast<size_t>(v) + 1] - chunk_begin_[v];
  }

  // Number of neighbor entries in v's k-th chunk: chunk_edges() for every
  // chunk but possibly the last.
  uint32_t ChunkSizeOf(VertexId v, uint32_t k) const {
    const uint64_t consumed = static_cast<uint64_t>(k) * chunk_edges_;
    return static_cast<uint32_t>(
        std::min<uint64_t>(chunk_edges_, degrees_[v] - consumed));
  }

  // Byte offset of v's encoded adjacency within the stream
  // (ByteOffset(num_vertices()) is the stream size).
  uint64_t ByteOffset(VertexId v) const {
    return chunk_bytes_[static_cast<size_t>(chunk_begin_[v])];
  }

  // Owning vertex of chunk c, by binary search over the per-vertex chunk
  // index table. O(log n) — positioning cost paid once per worker range,
  // never per chunk (iteration walks forward from the first owner).
  VertexId OwnerOf(int64_t c) const {
    const auto it = std::upper_bound(chunk_begin_.begin(), chunk_begin_.end(),
                                     static_cast<uint32_t>(c));
    return static_cast<VertexId>(it - chunk_begin_.begin() - 1);
  }

  // Decodes v's k-th chunk until fn(neighbor, weight) returns false. Returns
  // false iff fn stopped the decode (the pull kernel's per-chunk early exit).
  template <typename Fn>
  bool DecodeChunkWhile(VertexId v, uint32_t k, Fn&& fn) const {
    const size_t c = static_cast<size_t>(chunk_begin_[v]) + k;
    const uint8_t* cursor = bytes_.data() + chunk_bytes_[c];
    const uint32_t size = ChunkSizeOf(v, k);
    VertexId neighbor = 0;
    for (uint32_t i = 0; i < size; ++i) {
      if (i == 0) {
        const uint64_t zigzag = DecodeVarint(cursor);
        const int64_t delta =
            static_cast<int64_t>(zigzag >> 1) ^ -static_cast<int64_t>(zigzag & 1);
        neighbor = static_cast<VertexId>(static_cast<int64_t>(v) + delta);
      } else {
        neighbor += static_cast<VertexId>(DecodeVarint(cursor));
      }
      float weight = 1.0f;
      if (has_weights_) {
        weight = std::bit_cast<float>(static_cast<uint32_t>(DecodeVarint(cursor)));
      }
      if (!fn(neighbor, weight)) {
        return false;
      }
    }
    return true;
  }

  // Decodes v's neighbors in ascending order until fn(neighbor, weight)
  // returns false; returns false iff fn stopped the decode. An early stop
  // ends the current chunk mid-decode and never touches the later chunks.
  template <typename Fn>
  bool ForEachNeighborWhile(VertexId v, Fn&& fn) const {
    const uint32_t chunks = NumChunksOf(v);
    for (uint32_t k = 0; k < chunks; ++k) {
      if (!DecodeChunkWhile(v, k, fn)) {
        return false;
      }
    }
    return true;
  }

  // Decodes v's neighbors in ascending order, invoking fn(neighbor, weight);
  // weight is 1.0f on unweighted graphs. The whole-list walk of the
  // adjacency-source surface (see Csr::ForEachNeighbor).
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    ForEachNeighborWhile(v, [&fn](VertexId neighbor, float weight) {
      fn(neighbor, weight);
      return true;
    });
  }

  // Materializes v's neighbor list (testing convenience).
  std::vector<VertexId> Neighbors(VertexId v) const {
    std::vector<VertexId> out;
    out.reserve(Degree(v));
    ForEachNeighbor(v, [&out](VertexId n, float /*weight*/) { out.push_back(n); });
    return out;
  }

  // Materializes v's weights aligned with Neighbors(v); empty if unweighted.
  std::vector<float> NeighborWeights(VertexId v) const {
    std::vector<float> out;
    if (!has_weights_) {
      return out;
    }
    out.reserve(Degree(v));
    ForEachNeighbor(v, [&out](VertexId, float w) { out.push_back(w); });
    return out;
  }

  // Bytes held by the compressed structure (stream + all tables).
  size_t MemoryBytes() const {
    return bytes_.size() + degrees_.size() * sizeof(uint32_t) +
           chunk_begin_.size() * sizeof(uint32_t) +
           chunk_bytes_.size() * sizeof(uint64_t);
  }

  // Compression ratio vs the plain CSR footprint — offsets plus neighbor
  // array plus, when weighted, the weight array (< 1 is smaller).
  double RatioVsPlain() const {
    double plain = static_cast<double>(num_edges_) * sizeof(VertexId) +
                   static_cast<double>(num_vertices_ + 1) * sizeof(EdgeIndex);
    if (has_weights_) {
      plain += static_cast<double>(num_edges_) * sizeof(float);
    }
    return plain == 0 ? 1.0 : static_cast<double>(MemoryBytes()) / plain;
  }

  double BytesPerEdge() const {
    return num_edges_ == 0
               ? 0.0
               : static_cast<double>(MemoryBytes()) / static_cast<double>(num_edges_);
  }

  // Full structural check with bounds-checked varint decode: every chunk
  // must decode exactly its entry count consuming exactly its byte span,
  // every neighbor must be < num_vertices, and the tables must be mutually
  // consistent. Reports a corrupt structure instead of decoding garbage.
  bool Validate(std::string* error = nullptr) const;

  // Installs externally assembled tables, taken as untrusted: run Validate()
  // before decoding them.
  void Init(VertexId num_vertices, EdgeIndex num_edges, bool has_weights,
            uint32_t chunk_edges, std::vector<uint32_t> degrees,
            std::vector<uint32_t> chunk_begin, std::vector<uint64_t> chunk_bytes,
            std::vector<uint8_t> bytes) {
    num_vertices_ = num_vertices;
    num_edges_ = num_edges;
    has_weights_ = has_weights;
    chunk_edges_ = chunk_edges == 0 ? kDefaultChunkEdges : chunk_edges;
    degrees_ = std::move(degrees);
    chunk_begin_ = std::move(chunk_begin);
    chunk_bytes_ = std::move(chunk_bytes);
    bytes_ = std::move(bytes);
  }

  // Raw table access (format pins and structural tests).
  const std::vector<uint32_t>& degrees() const { return degrees_; }
  const std::vector<uint32_t>& chunk_begin() const { return chunk_begin_; }
  const std::vector<uint64_t>& chunk_bytes() const { return chunk_bytes_; }
  const std::vector<uint8_t>& stream_bytes() const { return bytes_; }

  // Bounded varint decode for trusted (validated) streams: the shift never
  // reaches 64, so a corrupt continuation-bit run can never shift past the
  // value width (which would be UB) or run the cursor away unbounded.
  // Malformed input yields a garbage value, never undefined behavior —
  // untrusted bytes go through DecodeVarintChecked instead.
  static uint64_t DecodeVarint(const uint8_t*& cursor) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const uint8_t byte = *cursor++;
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        break;
      }
    }
    return value;
  }

  // Checked decode for untrusted bytes: fails (returns false) on truncation
  // (cursor would pass `end`) or a varint longer than 10 bytes, instead of
  // reading out of bounds. On success advances `cursor` past the varint.
  static bool DecodeVarintChecked(const uint8_t*& cursor, const uint8_t* end,
                                  uint64_t* value) {
    uint64_t out = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (cursor == end || shift >= 64) {
        return false;
      }
      const uint8_t byte = *cursor++;
      out |= static_cast<uint64_t>(byte & 0x7F) << (shift < 63 ? shift : 63);
      if ((byte & 0x80) == 0) {
        *value = out;
        return true;
      }
    }
    return false;
  }

 private:
  // Steps 2-5 of Build, over the edges stably sorted by (vertex, neighbor).
  template <typename Record>
  void EncodeSorted(const std::vector<Record>& sorted, bool out_lists);

  VertexId num_vertices_ = 0;
  EdgeIndex num_edges_ = 0;
  bool has_weights_ = false;
  uint32_t chunk_edges_ = kDefaultChunkEdges;
  std::vector<uint32_t> degrees_;      // per vertex
  std::vector<uint32_t> chunk_begin_;  // per vertex + 1: first chunk index
  std::vector<uint64_t> chunk_bytes_;  // per chunk + 1: byte offsets
  std::vector<uint8_t> bytes_;         // the varint stream
};

}  // namespace egraph

#endif  // SRC_LAYOUT_COMPRESSED_CSR_H_
