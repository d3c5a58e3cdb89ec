#include "src/layout/range_partition.h"

#include <atomic>
#include <span>

#include "src/graph/stats.h"
#include "src/layout/csr_builder.h"
#include "src/layout/radix_sort.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/util/atomics.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// A CSR over [0, num_vertices) from a key-sorted edge segment.
Csr CsrFromSortedSegment(std::span<const Edge> edges, VertexId num_vertices,
                         bool key_is_src) {
  std::vector<VertexId> neighbors(edges.size());
  ParallelFor(0, static_cast<int64_t>(edges.size()), [&](int64_t i) {
    const Edge& e = edges[static_cast<size_t>(i)];
    neighbors[static_cast<size_t>(i)] = key_is_src ? e.dst : e.src;
  });
  Csr csr;
  csr.Init(num_vertices,
           OffsetsFromSorted(edges, num_vertices,
                             [key_is_src](const Edge& e) { return key_is_src ? e.src : e.dst; }),
           std::move(neighbors), {});
  return csr;
}

}  // namespace

std::vector<VertexId> BalancedVertexRanges(const std::vector<uint64_t>& score,
                                           int num_ranges) {
  const VertexId n = static_cast<VertexId>(score.size());
  if (num_ranges < 1) {
    num_ranges = 1;
  }
  uint64_t total_score = 0;
  for (uint64_t s : score) {
    total_score += s;
  }
  const uint64_t target = (total_score + num_ranges - 1) / num_ranges;

  std::vector<VertexId> boundaries(static_cast<size_t>(num_ranges) + 1, n);
  boundaries[0] = 0;
  uint64_t acc = 0;
  int range = 1;
  for (VertexId v = 0; v < n && range < num_ranges; ++v) {
    acc += score[static_cast<size_t>(v)];
    if (acc >= target * static_cast<uint64_t>(range)) {
      boundaries[static_cast<size_t>(range)] = v + 1;
      ++range;
    }
  }
  // Any unassigned boundaries collapse to n (empty trailing ranges on tiny
  // graphs); boundaries was initialized to n.
  return boundaries;
}

RangePartition BuildRangePartition(const EdgeList& graph, int num_ranges,
                                   RangeCsrs csrs) {
  obs::ScopedPhase phase(obs::Phase::kPartition);
  obs::Registry::Get().GetCounter("numa.partition_calls").Add(1);
  RangePartition partition;
  Timer timer;
  const VertexId n = graph.num_vertices();
  if (num_ranges < 1) {
    num_ranges = 1;
  }

  // Balance score per vertex: 1 (vertex) + in-degree (edges are stored with
  // their target). Contiguous ranges chosen so each range carries
  // ~1/num_ranges of the total score (Gemini's hybrid vertex+edge balance).
  std::vector<uint32_t> in_degree = InDegrees(graph);
  std::vector<uint64_t> score(static_cast<size_t>(n));
  ParallelFor(0, n, [&](int64_t v) {
    score[static_cast<size_t>(v)] = 1 + in_degree[static_cast<size_t>(v)];
  });
  partition.boundaries_ = BalancedVertexRanges(score, num_ranges);

  // Range ownership follows the destination vertex, and ranges own contiguous
  // destination spans — so ONE global sort groups edges by owning range:
  //   in-keying : sort by dst                  (range-major by construction)
  //   out-keying: sort by range(dst) * V + src (range-major, then by source)
  // Per-range CSRs are then cheap slices of the sorted array; this keeps the
  // partitioning cost at ~one adjacency-list build (what Polymer/Gemini pay)
  // instead of num_ranges separate builds.
  auto range_of = [&partition](VertexId v) {
    return static_cast<uint64_t>(partition.RangeOf(v));
  };

  // Per-range edge counts: edges live with their destination, so each range's
  // count is the in-degree mass of its vertex span (no extra edge pass).
  partition.range_edge_counts_.assign(static_cast<size_t>(num_ranges), 0);
  ParallelFor(0, num_ranges, [&](int64_t k) {
    uint64_t sum = 0;
    for (VertexId v = partition.boundaries_[static_cast<size_t>(k)];
         v < partition.boundaries_[static_cast<size_t>(k) + 1]; ++v) {
      sum += in_degree[v];
    }
    partition.range_edge_counts_[static_cast<size_t>(k)] = sum;
  });
  std::vector<uint64_t> segment_start(static_cast<size_t>(num_ranges) + 1, 0);
  for (int k = 0; k < num_ranges; ++k) {
    segment_start[static_cast<size_t>(k) + 1] =
        segment_start[static_cast<size_t>(k)] +
        partition.range_edge_counts_[static_cast<size_t>(k)];
  }

  auto segment = [&](const std::vector<Edge>& sorted, int k) {
    return std::span<const Edge>(sorted).subspan(
        segment_start[static_cast<size_t>(k)],
        partition.range_edge_counts_[static_cast<size_t>(k)]);
  };
  if (csrs != RangeCsrs::kInOnly) {
    const std::vector<Edge> sorted = ParallelRadixSort<Edge>(
        graph.edges(), RadixKeyBits(static_cast<uint64_t>(num_ranges) * n),
        [&](const Edge& e) { return range_of(e.dst) * n + e.src; });
    partition.out_csrs_.resize(static_cast<size_t>(num_ranges));
    for (int k = 0; k < num_ranges; ++k) {
      partition.out_csrs_[static_cast<size_t>(k)] =
          CsrFromSortedSegment(segment(sorted, k), n, /*key_is_src=*/true);
    }
  }
  if (csrs != RangeCsrs::kOutOnly) {
    const std::vector<Edge> sorted = ParallelRadixSort<Edge>(
        graph.edges(), RadixKeyBits(n), [](const Edge& e) { return e.dst; });
    partition.in_csrs_.resize(static_cast<size_t>(num_ranges));
    for (int k = 0; k < num_ranges; ++k) {
      partition.in_csrs_[static_cast<size_t>(k)] =
          CsrFromSortedSegment(segment(sorted, k), n, /*key_is_src=*/false);
    }
  }
  partition.build_seconds_ = timer.Seconds();
  return partition;
}

}  // namespace egraph
