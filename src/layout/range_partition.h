// Polymer/Gemini-style contiguous vertex-range partitioning: vertices are
// split into P contiguous ranges balancing vertices + edges; each edge is
// colocated with its *target* vertex so push-mode writes are always
// range-local ("the outgoing edges of vertices are colocated with their
// target vertices. This approach avoids random remote writes").
//
// Per range we materialize:
//   out_csr - edges with local destination, keyed by source (BFS-style
//             frontier expansion: walk a source's local targets)
//   in_csr  - the same edges keyed by destination (pull-style gather into
//             local vertices, e.g. Pagerank)
//
// This construction started life in src/numa/ as the simulated-NUMA cost
// model's substrate; it now lives here so the cost model is one consumer
// among several (ShardedGraph in src/shard/ is another).
#ifndef SRC_LAYOUT_RANGE_PARTITION_H_
#define SRC_LAYOUT_RANGE_PARTITION_H_

#include <algorithm>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/layout/csr.h"

namespace egraph {

// Which per-range CSR keyings to materialize. Building only what the target
// algorithm needs (out for BFS-style frontier expansion, in for pull-style
// gathers) halves the partitioning cost, exactly as a production system
// would; kBoth serves mixed workloads.
enum class RangeCsrs { kOutOnly, kInOnly, kBoth };

// Index of the contiguous range owning vertex v. boundaries is sorted with
// boundaries.front() == 0 and boundaries.back() == num_vertices; the owner
// is the last boundary <= v, found by binary search — O(log P) instead of
// the linear scan this replaced, which sat on the per-edge accounting and
// per-update sharding hot paths.
inline int RangeOwner(const std::vector<VertexId>& boundaries, VertexId v) {
  return static_cast<int>(
      std::upper_bound(boundaries.begin() + 1, boundaries.end() - 1, v) -
      boundaries.begin() - 1);
}

class RangePartition {
 public:
  int num_ranges() const { return static_cast<int>(boundaries_.size()) - 1; }
  VertexId num_vertices() const { return boundaries_.back(); }

  // Range owning vertex v.
  int RangeOf(VertexId v) const { return RangeOwner(boundaries_, v); }

  const std::vector<VertexId>& boundaries() const { return boundaries_; }

  // Edges whose destination is local to `range`, keyed by source vertex
  // (global ids; sources may be remote).
  const Csr& RangeOutCsr(int range) const { return out_csrs_[static_cast<size_t>(range)]; }

  // Same edges keyed by (local) destination.
  const Csr& RangeInCsr(int range) const { return in_csrs_[static_cast<size_t>(range)]; }

  uint64_t RangeEdgeCount(int range) const {
    return range_edge_counts_[static_cast<size_t>(range)];
  }

  // Wall time of the whole partitioning step (boundaries + bucketing + CSRs).
  double build_seconds() const { return build_seconds_; }

  friend RangePartition BuildRangePartition(const EdgeList& graph, int num_ranges,
                                            RangeCsrs csrs);

 private:
  std::vector<VertexId> boundaries_;  // num_ranges + 1, contiguous ranges
  std::vector<uint64_t> range_edge_counts_;
  std::vector<Csr> out_csrs_;
  std::vector<Csr> in_csrs_;
  double build_seconds_ = 0.0;
};

// Partitions `graph` over `num_ranges` contiguous vertex ranges, balancing
// vertices + in-edges per range (Gemini's hybrid balance).
RangePartition BuildRangePartition(const EdgeList& graph, int num_ranges,
                                   RangeCsrs csrs = RangeCsrs::kBoth);

// Contiguous boundaries over [0, num_vertices) such that each of the
// `num_ranges` ranges carries ~1/num_ranges of sum(score). Returned vector
// has num_ranges + 1 entries; trailing ranges may be empty on tiny inputs.
std::vector<VertexId> BalancedVertexRanges(const std::vector<uint64_t>& score,
                                           int num_ranges);

}  // namespace egraph

#endif  // SRC_LAYOUT_RANGE_PARTITION_H_
