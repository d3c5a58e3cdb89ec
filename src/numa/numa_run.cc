#include "src/numa/numa_run.h"

#include <limits>
#include <numeric>

namespace egraph {

std::vector<AccessCounts> BfsAccessCounts(const NumaPartition& partition,
                                          std::span<const uint32_t> levels) {
  const size_t nodes = static_cast<size_t>(partition.num_nodes());
  AccessCounts empty;
  empty.per_node.assign(nodes, 0);
  std::vector<AccessCounts> iterations;
  for (VertexId v = 0; v < levels.size(); ++v) {
    const uint32_t level = levels[v];
    if (level == std::numeric_limits<uint32_t>::max()) {
      continue;
    }
    if (level >= iterations.size()) {
      iterations.resize(static_cast<size_t>(level) + 1, empty);
    }
    std::vector<uint64_t>& per_node = iterations[level].per_node;
    per_node[static_cast<size_t>(partition.NodeOf(v))] += nodes;  // read v, once per node
    for (size_t k = 0; k < nodes; ++k) {
      per_node[k] += partition.NodeOutCsr(static_cast<int>(k)).Degree(v);  // write each dst
    }
  }
  for (AccessCounts& counts : iterations) {
    const uint64_t total =
        std::accumulate(counts.per_node.begin(), counts.per_node.end(), uint64_t{0});
    counts.local = total / nodes;
    counts.remote = total - counts.local;
  }
  return iterations;
}

AccessCounts PagerankAccessCounts(const NumaPartition& partition) {
  const uint64_t n = partition.num_vertices();
  const int num_nodes = partition.num_nodes();
  AccessCounts counts;
  counts.per_node.resize(static_cast<size_t>(num_nodes));
  uint64_t edges = 0;
  for (int k = 0; k < num_nodes; ++k) {
    edges += partition.NodeEdgeCount(k);
  }
  counts.local = edges + n;
  counts.remote = n * static_cast<uint64_t>(num_nodes - 1);
  for (int k = 0; k < num_nodes; ++k) {
    // Edge reads + writes land on the owning node; refresh traffic spreads.
    counts.per_node[static_cast<size_t>(k)] =
        partition.NodeEdgeCount(k) + (counts.remote + n) / static_cast<uint64_t>(num_nodes);
  }
  return counts;
}

double ModeledFromBaseline(double baseline_seconds, std::span<const AccessCounts> iterations,
                           const NumaTopology& topo, const CostModelOptions& options) {
  // Access-weighted mean of the per-iteration model factors (each factor is
  // ModeledSeconds with a unit measured time).
  double weighted_factor = 0.0;
  double weight = 0.0;
  for (const AccessCounts& counts : iterations) {
    const double w = static_cast<double>(counts.total());
    if (w == 0.0) {
      continue;
    }
    weighted_factor += w * ModeledSeconds(1.0, counts, topo, options);
    weight += w;
  }
  if (weight == 0.0) {
    return baseline_seconds;
  }
  return baseline_seconds * (weighted_factor / weight);
}

}  // namespace egraph
