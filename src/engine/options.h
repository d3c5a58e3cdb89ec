// The engine's orthogonal technique switches — the whole point of the paper:
// every optimization studied (data layout, iteration model, information
// flow, synchronization, NUMA placement, pre-processing method) is an
// independent knob, so each can be evaluated in isolation.
#ifndef SRC_ENGINE_OPTIONS_H_
#define SRC_ENGINE_OPTIONS_H_

#include <string>

namespace egraph {

// Data layout == iteration model (paper section 4: the layout determines how
// the graph is traversed).
enum class Layout {
  kEdgeArray,   // edge-centric full scans; zero pre-processing
  kAdjacency,   // vertex-centric; CSR built during pre-processing
  kGrid,        // grid-cell-centric; cache-blocked edge array
  kCompressed,  // vertex-centric over chunked delta-compressed CSR
  kSharded,     // vertex-centric CSR split into owned shards; cross-shard
                // updates ride aggregation buffers instead of locks
};

// Information flow (paper section 6).
enum class Direction {
  kPush,      // vertices write to out-neighbors
  kPull,      // vertices gather from in-neighbors; lock-free on adjacency
  kPushPull,  // Ligra-style dynamic switching on frontier density
};

// Synchronization strategy for concurrent vertex updates.
enum class Sync {
  kAtomics,   // CAS/fetch-add per update
  kLocks,     // striped spinlocks around plain updates
  kLockFree,  // no synchronization, safe by ownership (pull / grid columns)
};

// True for the layouts that walk per-vertex adjacency lists (plain,
// compressed, sharded): they honor the direction switch and need the out-
// and/or in-lists it implies. The edge array and grid scan stored edges.
bool IsVertexCentric(Layout layout);

const char* LayoutName(Layout layout);
const char* DirectionName(Direction direction);
const char* SyncName(Sync sync);

// Per-phase end-to-end timing, the paper's reporting unit.
struct TimingBreakdown {
  double load_seconds = 0.0;
  double preprocess_seconds = 0.0;
  double partition_seconds = 0.0;  // NUMA partitioning (section 7)
  double algorithm_seconds = 0.0;

  double Total() const {
    return load_seconds + preprocess_seconds + partition_seconds + algorithm_seconds;
  }
};

// Ligra's direction-switching heuristic: go dense/pull when
// |frontier| + sum(out-degree of frontier) > num_edges / threshold_den.
struct PushPullConfig {
  double threshold_den = 20.0;
};

}  // namespace egraph

#endif  // SRC_ENGINE_OPTIONS_H_
