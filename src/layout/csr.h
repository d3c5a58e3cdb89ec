// Compressed Sparse Row adjacency lists: per-vertex edge arrays stored
// contiguously (paper section 3.2, "the edges are stored contiguously in
// memory, corresponding to compressed sparse row format").
#ifndef SRC_LAYOUT_CSR_H_
#define SRC_LAYOUT_CSR_H_

#include <span>
#include <vector>

#include "src/graph/types.h"

namespace egraph {

class Csr {
 public:
  Csr() = default;

  VertexId num_vertices() const { return num_vertices_; }
  EdgeIndex num_edges() const { return neighbors_.size(); }
  bool has_weights() const { return !weights_.empty(); }

  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Neighbor ids of `v` (destinations for an out-CSR, sources for an in-CSR).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // Weights aligned with Neighbors(v); empty span when unweighted.
  std::span<const float> Weights(VertexId v) const {
    if (weights_.empty()) {
      return {};
    }
    return {weights_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // --- Adjacency source: the surface the EdgeMap kernels and scans are
  // written against, shared with CompressedCsr. Callbacks receive
  // (neighbor, weight), weight 1.0f on unweighted graphs; the weighted
  // branch is hoisted out of the per-edge loop.

  // Calls fn(neighbor, weight) for every entry of v's list, in list order.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    const VertexId* neighbors = neighbors_.data() + offsets_[v];
    const uint64_t degree = offsets_[v + 1] - offsets_[v];
    if (weights_.empty()) {
      for (uint64_t j = 0; j < degree; ++j) {
        fn(neighbors[j], 1.0f);
      }
    } else {
      const float* weights = weights_.data() + offsets_[v];
      for (uint64_t j = 0; j < degree; ++j) {
        fn(neighbors[j], weights[j]);
      }
    }
  }

  // Calls fn(neighbor, weight) in list order until it returns false.
  // Returns false iff fn stopped the walk.
  template <typename Fn>
  bool ForEachNeighborWhile(VertexId v, Fn&& fn) const {
    const VertexId* neighbors = neighbors_.data() + offsets_[v];
    const uint64_t degree = offsets_[v + 1] - offsets_[v];
    if (weights_.empty()) {
      for (uint64_t j = 0; j < degree; ++j) {
        if (!fn(neighbors[j], 1.0f)) {
          return false;
        }
      }
    } else {
      const float* weights = weights_.data() + offsets_[v];
      for (uint64_t j = 0; j < degree; ++j) {
        if (!fn(neighbors[j], weights[j])) {
          return false;
        }
      }
    }
    return true;
  }

  const std::vector<EdgeIndex>& offsets() const { return offsets_; }
  const std::vector<VertexId>& neighbors() const { return neighbors_; }
  const std::vector<float>& weights() const { return weights_; }

  // Builder access (used by csr_builder.cc only).
  void Init(VertexId num_vertices, std::vector<EdgeIndex> offsets,
            std::vector<VertexId> neighbors, std::vector<float> weights);

  // Sorts every per-vertex neighbor slice by neighbor id, in parallel —
  // the "sorted adjacency list" cache optimization of paper section 5.1.
  // Returns the wall time spent.
  double SortNeighborLists();

  // True when every neighbor slice is sorted (test invariant).
  bool NeighborListsSorted() const;

  // Total bytes held (offsets + neighbors + weights); memory accounting.
  size_t MemoryBytes() const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<EdgeIndex> offsets_;   // size num_vertices_ + 1
  std::vector<VertexId> neighbors_;  // size num_edges
  std::vector<float> weights_;       // empty or size num_edges
};

}  // namespace egraph

#endif  // SRC_LAYOUT_CSR_H_
