// Order-independent result fingerprints of served queries. The same query on
// the same frozen handle must produce bit-identical checksums at every
// session concurrency and against a serial reference — the serve
// differential tests and the benchmark's re-run check gate on exactly that —
// so the mixing and quantization live in one place.
#ifndef SRC_SERVE_CHECKSUM_H_
#define SRC_SERVE_CHECKSUM_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/graph/types.h"

namespace egraph::serve {

// Stateless SplitMix64 finalizer: the per-element mixer behind the
// order-independent (commutative-sum) checksums below.
inline uint64_t MixChecksum(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t ChecksumBfs(const std::vector<VertexId>& parent) {
  // Parent choices are execution-order dependent (any tree edge is a valid
  // parent), but the REACHED SET is deterministic — fingerprint that.
  uint64_t sum = 0;
  for (VertexId v = 0; v < static_cast<VertexId>(parent.size()); ++v) {
    if (parent[v] != kInvalidVertex) {
      sum += MixChecksum(v);
    }
  }
  return sum;
}

inline uint64_t ChecksumSssp(const std::vector<float>& dist) {
  // Converged distances are the min over paths of left-to-right float sums:
  // deterministic. Quantize to 1e-4 to be safe against FMA contraction
  // differences between build configurations.
  uint64_t sum = 0;
  for (VertexId v = 0; v < static_cast<VertexId>(dist.size()); ++v) {
    if (std::isfinite(dist[v])) {
      sum += MixChecksum(v ^ (static_cast<uint64_t>(std::llround(dist[v] * 1e4)) << 20));
    }
  }
  return sum;
}

inline uint64_t ChecksumWcc(const std::vector<VertexId>& label) {
  // Label propagation converges to the minimum vertex id per component:
  // deterministic regardless of execution interleaving.
  uint64_t sum = 0;
  for (VertexId v = 0; v < static_cast<VertexId>(label.size()); ++v) {
    sum += MixChecksum(v ^ (static_cast<uint64_t>(label[v]) << 32));
  }
  return sum;
}

inline uint64_t ChecksumPagerank(const std::vector<float>& rank) {
  // Atomic float accumulation makes final ulps order-dependent; quantize
  // each rank coarsely (1e-6 of total mass) before mixing.
  uint64_t sum = 0;
  for (VertexId v = 0; v < static_cast<VertexId>(rank.size()); ++v) {
    sum += MixChecksum(v ^ (static_cast<uint64_t>(std::llround(
                                static_cast<double>(rank[v]) * 1e6))
                            << 20));
  }
  return sum;
}

}  // namespace egraph::serve

#endif  // SRC_SERVE_CHECKSUM_H_
