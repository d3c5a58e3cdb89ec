// NUMA memory-system cost model (hardware substitution; see DESIGN.md).
//
// Access counts (src/numa/numa_run.h) give, per iteration, how many
// vertex-data accesses are local and remote, and which node each access
// targets. The model converts a *measured* algorithm time plus those counts
// into the time the same execution would take under a given topology:
//
//   latency(placement) = (local * local_ns + remote * remote_ns) / accesses
//   skew               = max_node_share among access targets
//   contention         = 1 + coeff * max(0, skew - 1/n) / (1 - 1/n)
//   modeled = measured * ((1 - f) + f * latency * contention / latency_ref)
//
// where f is the memory-bound fraction of the algorithm and latency_ref is
// the interleaved placement's average latency on the same topology (uniform
// spread, no contention). By construction the interleaved configuration
// models to `measured` exactly; the partitioned configuration gets faster
// when locality wins (Pagerank) and slower when per-iteration access skew
// triggers contention (BFS, paper Figs. 9a and 10).
#ifndef SRC_NUMA_COST_MODEL_H_
#define SRC_NUMA_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/numa/topology.h"

namespace egraph {

struct AccessCounts {
  uint64_t local = 0;
  uint64_t remote = 0;
  // Histogram of access-target nodes, for the contention term.
  std::vector<uint64_t> per_node;

  uint64_t total() const { return local + remote; }
  void Merge(const AccessCounts& other);
  // Largest share of accesses hitting a single node, in [1/n, 1].
  double MaxNodeShare() const;
};

// Counts for an interleaved placement: accesses spread uniformly, expected
// remote fraction (n-1)/n, zero skew.
AccessCounts InterleavedCounts(uint64_t total_accesses, int num_nodes);

struct CostModelOptions {
  // Fraction of algorithm time that scales with memory latency. Graph
  // kernels are strongly memory-bound; 0.8 reproduces the paper's 1.3-2x
  // Pagerank gains without overshooting.
  double memory_bound_fraction = 0.8;
};

// Average access latency for `counts` under `topo` (ns), without contention.
double AverageLatencyNs(const AccessCounts& counts, const NumaTopology& topo);

// Contention multiplier (>= 1) for the skew of `counts`.
double ContentionMultiplier(const AccessCounts& counts, const NumaTopology& topo);

// Models the wall time of an execution measured at `measured_seconds` whose
// accesses are described by `counts`, relative to the interleaved reference.
double ModeledSeconds(double measured_seconds, const AccessCounts& counts,
                      const NumaTopology& topo, const CostModelOptions& options = {});

}  // namespace egraph

#endif  // SRC_NUMA_COST_MODEL_H_
