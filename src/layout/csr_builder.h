// Adjacency-list construction: the paper's three techniques, each returning
// identical CSR structures but with very different cost profiles:
//
//   kDynamic   - grow per-vertex arrays edge by edge (reallocation churn,
//                poor locality, but overlappable with loading: section 3.4)
//   kCountSort - degree count + scatter (two input scans, random scatter)
//   kRadixSort - parallel MSD radix sort (sequential-write locality; the
//                paper's winner when the input is in memory: Table 2)
#ifndef SRC_LAYOUT_CSR_BUILDER_H_
#define SRC_LAYOUT_CSR_BUILDER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/layout/csr.h"

namespace egraph {

enum class BuildMethod { kDynamic, kCountSort, kRadixSort };
enum class EdgeDirection { kOut, kIn };

const char* BuildMethodName(BuildMethod method);

struct BuildStats {
  double seconds = 0.0;  // time inside the construction algorithm proper
};

// Builds a CSR over `direction` edges using `method`. The input edge list is
// not modified. `digit_bits` applies to kRadixSort only (ablation knob).
Csr BuildCsr(const EdgeList& graph, EdgeDirection direction, BuildMethod method,
             BuildStats* stats = nullptr, int digit_bits = 8);

// Out + in adjacency lists (needed by push-pull on directed graphs; paper
// section 6.1.3). `seconds` is the total construction time.
struct AdjacencyPair {
  Csr out;
  Csr in;
  double seconds = 0.0;
};
AdjacencyPair BuildCsrPair(const EdgeList& graph, BuildMethod method, int digit_bits = 8);

// Incremental dynamic builder: consumes edge chunks as they arrive from
// storage so that construction fully overlaps loading (paper section 3.4:
// "the dynamic approach ... can be fully overlapped with loading").
// Chunk calls come from one thread (the loader's StreamEdges loop calls
// them in file order); the inserts inside a chunk run in parallel, and
// per-vertex striped locks serialize list growth among the pool's workers.
class DynamicAdjacencyBuilder {
 public:
  DynamicAdjacencyBuilder(VertexId num_vertices, EdgeDirection direction, bool weighted);
  ~DynamicAdjacencyBuilder();

  // Appends a chunk of edges to the per-vertex arrays (parallel inside).
  // `weights` may be empty for unweighted graphs.
  void AddChunk(std::span<const Edge> edges, std::span<const float> weights);

  // Like AddChunk, but for weighted graphs whose weight section has not
  // arrived yet (the binary format stores all weights after all edges):
  // records each edge's global index `first_edge_index + i` so
  // FinalizeDeferred can attach the real weights once they land.
  void AddChunkDeferred(std::span<const Edge> edges, EdgeIndex first_edge_index);

  // Seconds spent inside AddChunk calls so far (the overlappable work).
  double build_seconds() const;

  // Flattens the per-vertex arrays into a CSR. The flatten cost is reported
  // separately because the paper's dynamic layout is used as-is; we convert
  // so that all computation runs over one adjacency type.
  Csr Finalize(double* flatten_seconds = nullptr);

  // Finalize for chunks added via AddChunkDeferred: `file_weights` is the
  // complete weight section in file order (empty for unweighted graphs).
  Csr FinalizeDeferred(std::span<const float> file_weights,
                       double* flatten_seconds = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double build_seconds_ = 0.0;
};

// Count sort: counts degrees chunk by chunk (the only phase of count sort
// that can overlap loading), then scatters in one pass over the fully
// loaded edge array. BuildCsr's kCountSort runs it with the whole edge list
// as one chunk. Like the dynamic builder, it takes its chunk calls from one
// thread. Both passes run in parallel and increment at random vertices (the
// cache-unfriendly part the paper calls out): CountChunk adds degrees with
// CountEdgeKeys, and Scatter files each edge through its key's atomic cursor.
class CountingAdjacencyBuilder {
 public:
  CountingAdjacencyBuilder(VertexId num_vertices, EdgeDirection direction);

  void CountChunk(std::span<const Edge> edges);
  double count_seconds() const;

  // Scatter pass over the complete edge array (must contain exactly the
  // edges previously counted). Returns the finished CSR.
  Csr Scatter(const EdgeList& graph, double* scatter_seconds = nullptr);

 private:
  VertexId num_vertices_;
  EdgeDirection direction_;
  std::vector<uint32_t> degrees_;
  double count_seconds_ = 0.0;
};

}  // namespace egraph

#endif  // SRC_LAYOUT_CSR_BUILDER_H_
