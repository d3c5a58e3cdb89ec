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

// Synchronization strategy for concurrent vertex updates. A call that runs
// alone (ThreadPool::CallRunsAlone) has nothing to synchronize with and
// updates plainly under any of them.
enum class Sync {
  kAtomics,   // CAS/fetch-add per update
  kLocks,     // striped spinlocks around plain updates
  kLockFree,  // no synchronization, safe by ownership (pull / grid columns)
};

// True for the layouts that walk per-vertex adjacency lists (plain,
// compressed, sharded): they honor the direction switch and need the out-
// and/or in-lists it implies. The edge array and grid scan stored edges.
inline bool IsVertexCentric(Layout layout) {
  return layout == Layout::kAdjacency || layout == Layout::kCompressed ||
         layout == Layout::kSharded;
}

// The names of the switches' values: the CLI's flag spellings and the
// strings of every report. Inline, so that libraries linked below the
// engine (obs) can use them.
inline const char* LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kEdgeArray:
      return "edge-array";
    case Layout::kAdjacency:
      return "adjacency";
    case Layout::kGrid:
      return "grid";
    case Layout::kCompressed:
      return "compressed";
    case Layout::kSharded:
      return "sharded";
  }
  return "?";
}

inline const char* DirectionName(Direction direction) {
  switch (direction) {
    case Direction::kPush:
      return "push";
    case Direction::kPull:
      return "pull";
    case Direction::kPushPull:
      return "push-pull";
  }
  return "?";
}

inline const char* SyncName(Sync sync) {
  switch (sync) {
    case Sync::kAtomics:
      return "atomics";
    case Sync::kLocks:
      return "locks";
    case Sync::kLockFree:
      return "lock-free";
  }
  return "?";
}

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
