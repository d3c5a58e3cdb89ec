#include "src/engine/options.h"

namespace egraph {

bool IsVertexCentric(Layout layout) {
  return layout == Layout::kAdjacency || layout == Layout::kCompressed ||
         layout == Layout::kSharded;
}

const char* LayoutName(Layout layout) {
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

const char* DirectionName(Direction direction) {
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

const char* SyncName(Sync sync) {
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

}  // namespace egraph
