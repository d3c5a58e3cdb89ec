// NUMA-aware algorithm drivers (paper section 7): execute BFS / Pagerank
// over a NumaPartition, with per-iteration access accounting feeding the
// cost model. The partitioned execution is real (it runs over the per-node
// CSRs built by PartitionGraph and its wall time is measured); only the
// memory-latency consequence of placement is modeled, because this machine
// has a single NUMA node (see DESIGN.md, Substitutions).
//
// Accounting counts one access per edge endpoint touched: reading the
// source's metadata and writing the destination's. Each access lands in
// per_node[k] of the node k owning the vertex; that histogram is a pure
// function of the graph, partition and source, and the cost model's
// contention term reads it. local/remote instead score each access against
// the executing worker's home node, worker_id * num_nodes / num_threads
// (block-cyclic core-to-node mapping). Work items do not follow ownership,
// so about 1/num_nodes of the accesses come out local whatever the
// placement, and the split moves with the pool width and the schedule.
#ifndef SRC_NUMA_NUMA_RUN_H_
#define SRC_NUMA_NUMA_RUN_H_

#include <vector>

#include "src/numa/cost_model.h"
#include "src/numa/partition.h"
#include "src/numa/topology.h"

namespace egraph {

struct NumaIterationSample {
  double seconds = 0.0;
  AccessCounts counts;  // placement of this iteration's accesses
};

struct NumaRunResult {
  double algorithm_seconds = 0.0;
  std::vector<NumaIterationSample> iterations;
};

// BFS over the partitioned graph; writes the parent tree to `parent` if
// non-null. Frontier expansion walks each node's local out-CSR, so all
// destination writes land on the owning node — the locality NUMA-awareness
// buys, and (per the paper) the very thing that serializes BFS onto one
// memory controller when the frontier is concentrated.
NumaRunResult RunBfsNumaPartitioned(const NumaPartition& partition, VertexId source,
                                    std::vector<VertexId>* parent);

// Pagerank (pull, lock-free) over the partitioned graph.
NumaRunResult RunPagerankNumaPartitioned(const NumaPartition& partition, int iterations,
                                         float damping, std::vector<float>* rank);

// Total modeled time of a partitioned run under `topo`: per-iteration
// modeled costs summed (contention is a per-iteration phenomenon).
double ModeledTotalSeconds(const NumaRunResult& result, const NumaTopology& topo,
                           const CostModelOptions& options = {});

// Models the partitioned execution's time by scaling a *measured interleaved
// baseline* with the access-weighted latency/contention factor implied by
// the partitioned run's placement counts. This removes code-path differences
// between the engine (baseline) and the NUMA driver (accounting source) from
// the comparison: both placements are priced on the same implementation.
double ModeledFromBaseline(double baseline_seconds, const NumaRunResult& run,
                           const NumaTopology& topo, const CostModelOptions& options = {});

}  // namespace egraph

#endif  // SRC_NUMA_NUMA_RUN_H_
