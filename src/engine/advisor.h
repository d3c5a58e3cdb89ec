// Configuration advisor: codifies the paper's section 9 roadmap for picking
// a data layout, information flow, synchronization and NUMA strategy from
// algorithm traits, graph statistics and machine shape.
#ifndef SRC_ENGINE_ADVISOR_H_
#define SRC_ENGINE_ADVISOR_H_

#include <string>

#include "src/engine/options.h"
#include "src/graph/stats.h"

namespace egraph {

struct AlgorithmTraits {
  const char* name = "?";
  bool single_pass = false;      // completes in one scan (SpMV)
  bool subset_active = false;    // traversal: few vertices active per step
  bool needs_undirected = false; // the paper computes it on the symmetrized graph (WCC)
  bool long_running = false;     // many full-graph iterations (Pagerank, ALS)
  bool gather_based = false;     // each vertex aggregates into its own state
                                 // (ALS factor solves): pull, lock-free
};

// Canonical traits for the paper's six algorithms.
AlgorithmTraits TraitsBfs();
AlgorithmTraits TraitsWcc();
AlgorithmTraits TraitsSssp();
AlgorithmTraits TraitsPagerank();
AlgorithmTraits TraitsSpmv();
AlgorithmTraits TraitsAls();

struct MachineTraits {
  int numa_nodes = 1;
  // Memory available for graph layouts, in bytes; 0 means unconstrained.
  // When an adjacency recommendation's plain CSR footprint would not fit,
  // the advisor downgrades it to the compressed layout, trading decode time
  // for memory (the paper's pre-processing-vs-memory currency).
  uint64_t memory_budget_bytes = 0;
  // Worker threads the run will use; 0 means unknown. At high worker counts
  // an adjacency-push recommendation upgrades to the sharded substrate:
  // aggregated cross-shard flushes replace the striped-lock/atomic scatter
  // whose contention grows with the writer count.
  int workers = 0;
};

struct Recommendation {
  Layout layout = Layout::kAdjacency;
  Direction direction = Direction::kPush;
  Sync sync = Sync::kAtomics;
  bool numa_partition = false;
  std::string rationale;
};

// Applies the roadmap:
//   1. layout from algorithm + graph shape (single-pass -> edge array;
//      subset-active -> adjacency push, except undirected inputs on
//      low-diameter graphs where doubled CSR cost favors the edge array;
//      all-active + high average degree -> grid, else edge array),
//   2. NUMA partitioning only on large NUMA machines for long-running
//      all-active algorithms,
//   3. lock removal whenever the layout/direction permits,
//   4. never push-pull on directed graphs (its pre-processing never pays),
//   5. under a memory budget the plain CSR cannot fit, compressed adjacency
//      replaces it (chunked decode keeps traversal parallel).
Recommendation Advise(const AlgorithmTraits& algorithm, const GraphStats& graph,
                      const MachineTraits& machine);

}  // namespace egraph

#endif  // SRC_ENGINE_ADVISOR_H_
