// Grid layout: edges bucketed into a P x P grid of cells, where cell (i, j)
// holds the edges from vertex block i to vertex block j. Adapted from
// GridGraph's out-of-core design (paper section 5.1) to improve in-memory
// cache locality: while a cell is processed, the metadata of both its source
// and destination block stays in the LLC.
//
// The grid also yields lock-free execution by ownership (paper section
// 6.1.2): push assigns disjoint columns (destination blocks) to threads; pull
// iterates column-major so each destination block is owned by one thread.
#ifndef SRC_LAYOUT_GRID_H_
#define SRC_LAYOUT_GRID_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/layout/csr_builder.h"  // BuildMethod

namespace egraph {

class Grid {
 public:
  Grid() = default;

  VertexId num_vertices() const { return num_vertices_; }
  EdgeIndex num_edges() const { return edges_.size(); }
  uint32_t num_blocks() const { return num_blocks_; }
  uint32_t block_size() const { return block_size_; }
  bool has_weights() const { return !weights_.empty(); }

  uint32_t BlockOf(VertexId v) const { return v / block_size_; }

  // Edges of cell (src_block, dst_block).
  std::span<const Edge> Cell(uint32_t src_block, uint32_t dst_block) const {
    const size_t c = CellIndex(src_block, dst_block);
    return {edges_.data() + cell_offsets_[c], cell_offsets_[c + 1] - cell_offsets_[c]};
  }

  std::span<const float> CellWeights(uint32_t src_block, uint32_t dst_block) const {
    if (weights_.empty()) {
      return {};
    }
    const size_t c = CellIndex(src_block, dst_block);
    return {weights_.data() + cell_offsets_[c], cell_offsets_[c + 1] - cell_offsets_[c]};
  }

  size_t CellIndex(uint32_t src_block, uint32_t dst_block) const {
    return static_cast<size_t>(src_block) * num_blocks_ + dst_block;
  }

  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<EdgeIndex>& cell_offsets() const { return cell_offsets_; }

  // Destination blocks (columns) in descending edge count, ties by index:
  // the dispatch order of the column-owned scan. Computed once by Init.
  const std::vector<uint32_t>& column_order() const { return column_order_; }

  size_t MemoryBytes() const {
    return edges_.size() * sizeof(Edge) + cell_offsets_.size() * sizeof(EdgeIndex) +
           weights_.size() * sizeof(float);
  }

  // Builder access.
  void Init(VertexId num_vertices, uint32_t num_blocks, std::vector<EdgeIndex> cell_offsets,
            std::vector<Edge> edges, std::vector<float> weights);

 private:
  VertexId num_vertices_ = 0;
  uint32_t num_blocks_ = 0;
  uint32_t block_size_ = 0;
  std::vector<EdgeIndex> cell_offsets_;  // num_blocks^2 + 1, row (src-block) major
  std::vector<Edge> edges_;              // bucketed by cell
  std::vector<float> weights_;           // optional, aligned with edges_
  std::vector<uint32_t> column_order_;   // num_blocks, heaviest column first
};

struct GridOptions {
  // The paper finds 256x256 cells best on Twitter/RMAT26; scaled-down
  // defaults follow the same vertices-per-block ratio via engine defaults.
  uint32_t num_blocks = 256;
  BuildMethod method = BuildMethod::kRadixSort;  // radix bucket vs dynamic
};

// Buckets `graph` into a grid. `stats` receives the construction time.
Grid BuildGrid(const EdgeList& graph, const GridOptions& options, BuildStats* stats = nullptr);

}  // namespace egraph

#endif  // SRC_LAYOUT_GRID_H_
