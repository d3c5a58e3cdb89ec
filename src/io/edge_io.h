// Edge-list persistence. The binary format mirrors the paper's assumption
// that "the graph input takes the form of an edge array": a fixed header
// followed by raw (src, dst) pairs, then optional float weights. It is
// written here and read by the one streaming loop in loader.h (LoadEdges,
// LoadAndBuild).
//
// Binary layout (little endian):
//   uint64 magic       "EGRAPH01"
//   uint32 num_vertices
//   uint32 flags       bit 0: has weights
//   uint64 num_edges
//   Edge[num_edges]    8 bytes each
//   float[num_edges]   present iff weighted
#ifndef SRC_IO_EDGE_IO_H_
#define SRC_IO_EDGE_IO_H_

#include <cstdint>
#include <string>

#include "src/graph/edge_list.h"

namespace egraph {

inline constexpr uint64_t kEdgeFileMagic = 0x3130485041524745ULL;  // "EGRAPH01"

struct EdgeFileHeader {
  uint64_t magic = kEdgeFileMagic;
  uint32_t num_vertices = 0;
  uint32_t flags = 0;
  uint64_t num_edges = 0;

  bool has_weights() const { return (flags & 1u) != 0; }
};
static_assert(sizeof(EdgeFileHeader) == 24);

// Writes `graph` to `path`. Throws std::runtime_error on I/O failure.
void WriteBinaryEdges(const std::string& path, const EdgeList& graph);

// Text interchange: one "src dst [weight]" line per edge; '#' comments
// allowed. Vertex count is the max endpoint + 1 unless a "# vertices N"
// comment is present. ReadTextEdges throws std::runtime_error on malformed
// lines and on an id of kInvalidVertex or more.
void WriteTextEdges(const std::string& path, const EdgeList& graph);
EdgeList ReadTextEdges(const std::string& path);

}  // namespace egraph

#endif  // SRC_IO_EDGE_IO_H_
