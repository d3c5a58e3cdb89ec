// Frontier (vertex subset): the set of active vertices in a computation
// step, held sparse (vertex vector), dense (bitmap), or both. EdgeMap picks
// the representation its traversal needs; conversions are parallel and
// cached within the object.
#ifndef SRC_ENGINE_FRONTIER_H_
#define SRC_ENGINE_FRONTIER_H_

#include <cstdint>
#include <vector>

#include "src/graph/types.h"
#include "src/util/bitmap.h"
#include "src/util/parallel.h"

namespace egraph {

class Frontier {
 public:
  Frontier() = default;

  // Empty frontier over n vertices.
  static Frontier None(VertexId n);
  // Single-vertex frontier (BFS/SSSP source).
  static Frontier Single(VertexId n, VertexId v);
  // All vertices active (Pagerank-style rounds, WCC round 0).
  static Frontier All(VertexId n);
  // From an explicit vertex list (must be duplicate-free).
  static Frontier FromVector(VertexId n, std::vector<VertexId> vertices);
  // From a bitmap with known population count.
  static Frontier FromBitmap(VertexId n, Bitmap bitmap, int64_t count);

  VertexId num_vertices() const { return num_vertices_; }
  int64_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }
  bool has_dense() const { return has_dense_; }
  bool has_sparse() const { return has_sparse_; }

  // Materializes the missing representation (parallel; no-op when present).
  void EnsureDense();
  void EnsureSparse();

  // Membership test; requires the dense representation.
  bool Contains(VertexId v) const { return dense_.Get(v); }

  // Active vertices; requires the sparse representation.
  const std::vector<VertexId>& Vertices() const { return sparse_; }

  const Bitmap& bitmap() const { return dense_; }

  // Splits the active set by vertex range. `boundaries` has P+1 entries with
  // boundaries[0] == 0 and boundaries[P] == num_vertices(); partition p owns
  // [boundaries[p], boundaries[p+1]). Returns P frontiers over the same
  // vertex space whose active sets partition this frontier's; ranges with no
  // active vertices yield empty frontiers. The sharded push uses this to
  // hand each source shard its slice of the frontier.
  std::vector<Frontier> SplitByRanges(const std::vector<VertexId>& boundaries);

  // |F| + sum of out-degrees of F over any adjacency source (Csr or
  // CompressedCsr): the quantity Ligra's push-pull heuristic compares
  // against |E| / threshold, asked once per frontier per round.
  template <typename Source>
  uint64_t WorkEstimate(const Source& out) {
    EnsureSparse();
    const uint64_t degree_sum = ParallelReduceSum<uint64_t>(
        0, static_cast<int64_t>(sparse_.size()),
        [this, &out](int64_t i) { return out.Degree(sparse_[static_cast<size_t>(i)]); });
    return degree_sum + static_cast<uint64_t>(count_);
  }

 private:
  VertexId num_vertices_ = 0;
  int64_t count_ = 0;
  bool has_dense_ = false;
  bool has_sparse_ = false;
  std::vector<VertexId> sparse_;
  Bitmap dense_;
};

}  // namespace egraph

#endif  // SRC_ENGINE_FRONTIER_H_
