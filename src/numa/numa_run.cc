#include "src/numa/numa_run.h"

#include <algorithm>

#include "src/util/atomics.h"
#include "src/util/bitmap.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Per-worker access accumulator. Each worker owns a row of 2 + num_nodes
// counters (local, remote, then one per node) followed by a cache line of
// padding, so no two workers' counters ever share a line.
class Accountant {
 public:
  Accountant(const NumaPartition* partition, int num_workers)
      : partition_(partition),
        num_nodes_(partition->num_nodes()),
        num_workers_(num_workers),
        stride_(kPerNode + static_cast<size_t>(num_nodes_) + kCountersPerLine),
        counts_(static_cast<size_t>(num_workers) * stride_, 0) {}

  int HomeNode(int worker) const { return worker * num_nodes_ / num_workers_; }

  // Records an access by `worker` to vertex `v`'s metadata.
  void Touch(int worker, VertexId v) {
    const int node = partition_->NodeOf(v);
    uint64_t* row = counts_.data() + static_cast<size_t>(worker) * stride_;
    ++row[node == HomeNode(worker) ? kLocal : kRemote];
    ++row[kPerNode + static_cast<size_t>(node)];
  }

  // Drains accumulated counts into an AccessCounts and resets.
  AccessCounts Collect() {
    AccessCounts total;
    total.per_node.assign(static_cast<size_t>(num_nodes_), 0);
    for (int worker = 0; worker < num_workers_; ++worker) {
      const uint64_t* row = counts_.data() + static_cast<size_t>(worker) * stride_;
      total.local += row[kLocal];
      total.remote += row[kRemote];
      for (size_t k = 0; k < total.per_node.size(); ++k) {
        total.per_node[k] += row[kPerNode + k];
      }
    }
    std::fill(counts_.begin(), counts_.end(), 0);
    return total;
  }

 private:
  static constexpr size_t kCountersPerLine = 64 / sizeof(uint64_t);
  static constexpr size_t kLocal = 0;
  static constexpr size_t kRemote = 1;
  static constexpr size_t kPerNode = 2;

  const NumaPartition* partition_;
  int num_nodes_;
  int num_workers_;
  size_t stride_;
  std::vector<uint64_t> counts_;
};

}  // namespace

NumaRunResult RunBfsNumaPartitioned(const NumaPartition& partition, VertexId source,
                                    std::vector<VertexId>* parent_out) {
  NumaRunResult result;
  const VertexId n = partition.num_vertices();
  const int num_nodes = partition.num_nodes();
  const int workers = ThreadPool::Current().num_threads();
  Accountant accountant(&partition, workers);

  std::vector<VertexId> parent(n, kInvalidVertex);
  if (source >= n) {
    if (parent_out != nullptr) {
      *parent_out = std::move(parent);
    }
    return result;
  }
  Timer total;
  parent[source] = source;
  std::vector<VertexId> frontier{source};

  while (!frontier.empty()) {
    Timer iteration;
    std::vector<std::vector<VertexId>> buffers(static_cast<size_t>(workers));
    Bitmap next(n);
    // Each frontier vertex is expanded against every node's local out-CSR;
    // the (node, vertex) grid is flattened so chunks interleave nodes.
    const int64_t items = static_cast<int64_t>(frontier.size()) * num_nodes;
    ParallelForChunks(0, items, /*grain=*/64, [&](int64_t lo, int64_t hi, int worker) {
      for (int64_t it = lo; it < hi; ++it) {
        const int node = static_cast<int>(it % num_nodes);
        const VertexId src = frontier[static_cast<size_t>(it / num_nodes)];
        const Csr& csr = partition.NodeOutCsr(node);
        accountant.Touch(worker, src);  // read src metadata
        for (const VertexId dst : csr.Neighbors(src)) {
          accountant.Touch(worker, dst);  // write dst metadata (dst's owner node)
          if (AtomicLoad(&parent[dst]) == kInvalidVertex &&
              AtomicCas(&parent[dst], kInvalidVertex, src) && next.TestAndSet(dst)) {
            buffers[static_cast<size_t>(worker)].push_back(dst);
          }
        }
      }
    });
    std::vector<VertexId> next_frontier;
    for (auto& b : buffers) {
      next_frontier.insert(next_frontier.end(), b.begin(), b.end());
    }
    frontier = std::move(next_frontier);
    NumaIterationSample sample;
    sample.seconds = iteration.Seconds();
    sample.counts = accountant.Collect();
    result.iterations.push_back(std::move(sample));
  }
  result.algorithm_seconds = total.Seconds();
  if (parent_out != nullptr) {
    *parent_out = std::move(parent);
  }
  return result;
}

NumaRunResult RunPagerankNumaPartitioned(const NumaPartition& partition, int iterations,
                                         float damping, std::vector<float>* rank_out) {
  NumaRunResult result;
  const VertexId n = partition.num_vertices();
  const int num_nodes = partition.num_nodes();
  const int workers = ThreadPool::Current().num_threads();
  Accountant accountant(&partition, workers);
  if (n == 0) {
    return result;
  }

  Timer total;
  const std::vector<uint32_t>& degree = partition.out_degrees();

  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  std::vector<float> contrib(n, 0.0f);
  std::vector<float> next(n, 0.0f);
  const float base_teleport = (1.0f - damping) / static_cast<float>(n);

  for (int iter = 0; iter < iterations; ++iter) {
    Timer iteration;
    double dangling = ParallelReduceSum<double>(0, static_cast<int64_t>(n), [&](int64_t v) {
      const size_t i = static_cast<size_t>(v);
      if (degree[i] == 0) {
        contrib[i] = 0.0f;
        return static_cast<double>(rank[i]);
      }
      contrib[i] = rank[i] / static_cast<float>(degree[i]);
      return 0.0;
    });

    // Pull into each node's local vertices from its in-CSR: destination
    // writes are node-local, and source contributions are read from a
    // node-local replica of the contrib array (Polymer replicates
    // read-mostly data; Gemini mirrors it), so the only remote traffic is
    // the per-iteration replica refresh, accounted analytically below.
    for (int k = 0; k < num_nodes; ++k) {
      const Csr& csr = partition.NodeInCsr(k);
      const VertexId lo = partition.boundaries()[static_cast<size_t>(k)];
      const VertexId hi = partition.boundaries()[static_cast<size_t>(k) + 1];
      ParallelForChunks(lo, hi, /*grain=*/256, [&](int64_t vlo, int64_t vhi, int /*worker*/) {
        for (int64_t v = vlo; v < vhi; ++v) {
          const VertexId dst = static_cast<VertexId>(v);
          float sum = 0.0f;
          for (const VertexId src : csr.Neighbors(dst)) {
            sum += contrib[src];
          }
          next[static_cast<size_t>(v)] = sum;
        }
      });
    }

    const float teleport =
        base_teleport + damping * static_cast<float>(dangling) / static_cast<float>(n);
    ParallelFor(0, static_cast<int64_t>(n), [&](int64_t v) {
      next[static_cast<size_t>(v)] = teleport + damping * next[static_cast<size_t>(v)];
    });
    rank.swap(next);

    NumaIterationSample sample;
    sample.seconds = iteration.Seconds();
    // Analytic per-iteration access placement under replication:
    //   - one local read per edge (contrib replica) and one local write per
    //     vertex (next[]), all on the owning node,
    //   - replica refresh: every node fetches the (n-1)/n remote share of
    //     the contrib array once per iteration.
    const uint64_t num_edges_total = [&] {
      uint64_t sum = 0;
      for (int k = 0; k < num_nodes; ++k) {
        sum += partition.NodeEdgeCount(k);
      }
      return sum;
    }();
    sample.counts.local = num_edges_total + n;
    sample.counts.remote =
        static_cast<uint64_t>(n) * static_cast<uint64_t>(num_nodes - 1);
    sample.counts.per_node.assign(static_cast<size_t>(num_nodes), 0);
    for (int k = 0; k < num_nodes; ++k) {
      // Edge reads + writes land on the owning node; refresh traffic spreads.
      sample.counts.per_node[static_cast<size_t>(k)] =
          partition.NodeEdgeCount(k) +
          (sample.counts.remote + n) / static_cast<uint64_t>(num_nodes);
    }
    (void)accountant;
    result.iterations.push_back(std::move(sample));
  }
  result.algorithm_seconds = total.Seconds();
  if (rank_out != nullptr) {
    *rank_out = std::move(rank);
  }
  return result;
}

double ModeledTotalSeconds(const NumaRunResult& result, const NumaTopology& topo,
                           const CostModelOptions& options) {
  double total = 0.0;
  for (const auto& sample : result.iterations) {
    total += ModeledSeconds(sample.seconds, sample.counts, topo, options);
  }
  return total;
}

double ModeledFromBaseline(double baseline_seconds, const NumaRunResult& run,
                           const NumaTopology& topo, const CostModelOptions& options) {
  // Access-weighted mean of the per-iteration model factors (each factor is
  // ModeledSeconds with a unit measured time).
  double weighted_factor = 0.0;
  double weight = 0.0;
  for (const auto& sample : run.iterations) {
    const double w = static_cast<double>(sample.counts.total());
    if (w == 0.0) {
      continue;
    }
    weighted_factor += w * ModeledSeconds(1.0, sample.counts, topo, options);
    weight += w;
  }
  if (weight == 0.0) {
    return baseline_seconds;
  }
  return baseline_seconds * (weighted_factor / weight);
}

}  // namespace egraph
