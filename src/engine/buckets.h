// Buckets: lazily bucketed vertex priorities, after GBBS's bucketing
// ("Theoretically Efficient Parallel Graph Algorithms Can Be Fast and
// Scalable"). A bucketed traversal runs each round on the lowest non-empty
// bucket instead of on every vertex that changed; SSSP files a vertex under
// floor(dist / width) and so relaxes one distance band at a time.
//
// Moves are lazy. A vertex is appended to its bucket whenever it improves and
// is never removed from the bucket it left, so taking a bucket drops entries
// whose vertex has since moved to a lower one (stale) or was already taken
// (duplicate). A window of kOpenBuckets consecutive buckets is held open;
// entries beyond it wait in one overflow list that is re-split only when the
// window runs dry. Storage is therefore O(pending entries), never
// O(max priority / width). Entries are filed in parallel into per-worker
// lists, like the EdgeMap's per-worker discovery buffers. A round whose
// discoveries all share one bucket while nothing else waits (every round of
// a unit-weight traversal) is returned as it stands, without filing.
#ifndef SRC_ENGINE_BUCKETS_H_
#define SRC_ENGINE_BUCKETS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/engine/frontier.h"
#include "src/util/parallel.h"

namespace egraph {

// Buckets held open at once; entries filed further ahead overflow.
inline constexpr uint64_t kOpenBuckets = 128;

// bucket_of(v) returns v's current bucket. It may only fall while v waits
// (priorities only improve), and never below the bucket being taken: a
// vertex improved by relaxing the current bucket lands in it or above it
// (non-negative steps). Ids must stay below 2^63.
template <typename BucketOf>
class Buckets {
 public:
  Buckets(VertexId n, BucketOf bucket_of)
      : n_(n), bucket_of_(std::move(bucket_of)), taken_(n) {
    const size_t workers = static_cast<size_t>(ThreadPool::Current().num_threads());
    open_.assign(workers, std::vector<std::vector<VertexId>>(kOpenBuckets));
    overflow_.resize(workers);
  }

  // Files every vertex of `improved` under its current bucket, then takes
  // the lowest non-empty bucket and returns its live members; empty once
  // every bucket is.
  Frontier Next(Frontier improved) {
    improved.EnsureSparse();
    const std::vector<VertexId>& vertices = improved.Vertices();
    if (!vertices.empty() && NothingWaits()) {
      // When every improved vertex shares one bucket, the discoveries are
      // that bucket, live and distinct as they stand (unit weights make every
      // round so): no filing.
      const uint64_t b = bucket_of_(vertices.front());
      if (std::all_of(vertices.begin(), vertices.end(),
                      [&](VertexId v) { return bucket_of_(v) == b; })) {
        if (b - base_ >= kOpenBuckets) {
          base_ = b;
        }
        current_ = b;
        return improved;
      }
    }
    File(vertices);
    while (true) {
      for (; current_ < base_ + kOpenBuckets; ++current_) {
        std::vector<VertexId> members = Take(current_ - base_);
        if (!members.empty()) {
          return Frontier::FromVector(n_, std::move(members));
        }
      }
      if (!Reopen()) {
        return Frontier::None(n_);
      }
    }
  }

 private:
  // Below this many entries the filing loop runs on the caller.
  static constexpr int64_t kFileGrain = 4096;

  bool NothingWaits() const {
    for (const auto& open : open_) {
      for (const auto& slot : open) {
        if (!slot.empty()) {
          return false;
        }
      }
    }
    for (const auto& overflow : overflow_) {
      if (!overflow.empty()) {
        return false;
      }
    }
    return true;
  }

  void File(const std::vector<VertexId>& vertices) {
    auto file = [&](int64_t lo, int64_t hi, int worker) {
      auto& open = open_[static_cast<size_t>(worker)];
      auto& overflow = overflow_[static_cast<size_t>(worker)];
      for (int64_t i = lo; i < hi; ++i) {
        const VertexId v = vertices[static_cast<size_t>(i)];
        const uint64_t slot = bucket_of_(v) - base_;
        (slot < kOpenBuckets ? open[slot] : overflow).push_back(v);
      }
    };
    const int64_t m = static_cast<int64_t>(vertices.size());
    if (m <= kFileGrain) {
      file(0, m, 0);
    } else {
      ParallelForChunks(0, m, kFileGrain, file);
    }
  }

  // Live, deduplicated entries of window slot `slot` (bucket current_). The
  // slot is left empty but keeps its capacity, so filing into it again does
  // not reallocate.
  std::vector<VertexId> Take(uint64_t slot) {
    size_t entries = 0;
    for (const auto& open : open_) {
      entries += open[slot].size();
    }
    std::vector<VertexId> members;
    members.reserve(entries);
    for (auto& open : open_) {
      for (const VertexId v : open[slot]) {
        if (bucket_of_(v) == current_ && !taken_[v]) {
          taken_[v] = true;
          members.push_back(v);
        }
      }
      open[slot].clear();
    }
    for (const VertexId v : members) {
      taken_[v] = false;
    }
    return members;
  }

  // The window is dry: reopens it at the lowest bucket still waiting in the
  // overflow and moves that window's entries in. Entries whose bucket now
  // lies below the old window's end are stale (their vertex improved into
  // the window, was filed there again and has been taken). False when
  // nothing waits.
  bool Reopen() {
    const uint64_t end = base_ + kOpenBuckets;
    uint64_t lowest = std::numeric_limits<uint64_t>::max();
    for (const auto& overflow : overflow_) {
      for (const VertexId v : overflow) {
        const uint64_t b = bucket_of_(v);
        if (b >= end) {
          lowest = std::min(lowest, b);
        }
      }
    }
    if (lowest == std::numeric_limits<uint64_t>::max()) {
      for (auto& overflow : overflow_) {
        overflow.clear();
      }
      return false;
    }
    base_ = current_ = lowest;
    for (size_t w = 0; w < overflow_.size(); ++w) {
      auto& overflow = overflow_[w];
      size_t kept = 0;
      for (const VertexId v : overflow) {
        const uint64_t b = bucket_of_(v);
        if (b < end) {
          continue;
        }
        if (b - base_ < kOpenBuckets) {
          open_[w][b - base_].push_back(v);
        } else {
          overflow[kept++] = v;
        }
      }
      overflow.resize(kept);
    }
    return true;
  }

  VertexId n_;
  BucketOf bucket_of_;
  uint64_t base_ = 0;     // bucket held in window slot 0
  uint64_t current_ = 0;  // lowest bucket that may hold live entries
  std::vector<std::vector<std::vector<VertexId>>> open_;  // [worker][slot]
  std::vector<std::vector<VertexId>> overflow_;           // [worker]
  // Members of the bucket being taken, cleared after. Only the caller's
  // thread touches it, so plain bits, not the atomic Bitmap.
  std::vector<bool> taken_;
};

}  // namespace egraph

#endif  // SRC_ENGINE_BUCKETS_H_
