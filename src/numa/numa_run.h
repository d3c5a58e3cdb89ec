// Access counts of BFS and Pagerank under a NUMA partition (paper section
// 7), priced by the cost model against the engine's measured time. Only the
// partitioning is executed (PartitionGraph, whose wall time is the paper's
// partitioning cost); the algorithms run on the engine, and the
// memory-latency consequence of placement is modeled, because the host has
// a single NUMA node (see DESIGN.md, Substitutions).
//
// The counts are pure functions of graph, partition and source. BFS
// iteration i expands level i over every node's out-CSR: each level-i
// vertex's metadata is read once per node, on its own node, and each of its
// out-edges writes its destination's metadata, on the destination's node.
// That per_node histogram feeds the contention term. The local/remote split
// is stated, not counted: work items do not follow ownership, so one access
// in num_nodes is local whatever the placement. Pagerank's counts assume
// node-local replicas of the contribution array (Polymer, Gemini).
#ifndef SRC_NUMA_NUMA_RUN_H_
#define SRC_NUMA_NUMA_RUN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/numa/cost_model.h"
#include "src/numa/partition.h"
#include "src/numa/topology.h"

namespace egraph {

// One AccessCounts per BFS iteration: levels[v] is v's hop distance from the
// source (UINT32_MAX when unreached), and entry i covers the expansion of
// level i. Needs the partition's out-CSRs.
std::vector<AccessCounts> BfsAccessCounts(const NumaPartition& partition,
                                          std::span<const uint32_t> levels);

// The access counts of one Pagerank iteration (pull, lock-free): one local
// read per edge and one local write per vertex on the owning node, plus the
// replica refresh, in which every node fetches the (n-1)/n remote share of
// the contribution array.
AccessCounts PagerankAccessCounts(const NumaPartition& partition);

// Models the partitioned execution's time by scaling a *measured interleaved
// baseline* with the access-weighted latency/contention factor of the
// per-iteration counts. Both placements are priced on the same
// implementation, the engine's.
double ModeledFromBaseline(double baseline_seconds, std::span<const AccessCounts> iterations,
                           const NumaTopology& topo, const CostModelOptions& options = {});

}  // namespace egraph

#endif  // SRC_NUMA_NUMA_RUN_H_
