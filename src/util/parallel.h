// Parallel primitives built on the work-stealing pool: element-wise loops,
// reductions, prefix sums, and cost-balanced chunking. These are the building
// blocks of every layout builder (count sort needs a parallel exclusive scan)
// and of the engine.
//
// Every primitive dispatches on ThreadPool::Current(), read on the calling
// thread: the pool bound by the innermost execution context, falling back
// to the process-wide default. Library code never calls ThreadPool::Get()
// directly; the default context is the only place the process-wide pool
// enters the picture, which is what lets concurrent query contexts run on
// disjoint worker sets.
#ifndef SRC_UTIL_PARALLEL_H_
#define SRC_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/thread_pool.h"

namespace egraph {

// Calls body(i) with an explicit chunk grain (work-distribution knob).
template <typename Body>
void ParallelForGrain(int64_t begin, int64_t end, int64_t grain, Body&& body) {
  ThreadPool::Current().ParallelForChunks(begin, end, grain,
                                          [&body](int64_t lo, int64_t hi, int /*worker*/) {
                                            for (int64_t i = lo; i < hi; ++i) {
                                              body(i);
                                            }
                                          });
}

// Calls body(i) for every i in [begin, end), in parallel, at the pool's
// default grain.
template <typename Body>
void ParallelFor(int64_t begin, int64_t end, Body&& body) {
  ParallelForGrain(begin, end, /*grain=*/0, body);
}

// Calls body(chunk_begin, chunk_end, worker_id). Useful when the body keeps
// per-chunk scratch state (e.g. per-thread histograms in radix sort).
template <typename Body>
void ParallelForChunks(int64_t begin, int64_t end, int64_t grain, Body&& body) {
  ThreadPool::Current().ParallelForChunks(begin, end, grain,
                                          [&body](int64_t lo, int64_t hi, int worker) {
                                            body(lo, hi, worker);
                                          });
}

// Parallel sum-reduction of body(i) over [begin, end).
template <typename T, typename Body>
T ParallelReduceSum(int64_t begin, int64_t end, Body&& body) {
  ThreadPool& pool = ThreadPool::Current();
  std::vector<T> partial(static_cast<size_t>(pool.num_threads()), T{});
  pool.ParallelForChunks(begin, end, /*grain=*/0,
                         [&body, &partial](int64_t lo, int64_t hi, int worker) {
                           T local{};
                           for (int64_t i = lo; i < hi; ++i) {
                             local += body(i);
                           }
                           partial[static_cast<size_t>(worker)] += local;
                         });
  T total{};
  for (const T& value : partial) {
    total += value;
  }
  return total;
}

// Fixed block size of the deterministic reduction below. A power of two big
// enough that the per-block partial vector stays small next to the data.
inline constexpr int64_t kDeterministicReduceBlock = 4096;

// Pool-size-independent parallel sum: the range is cut into fixed-size
// blocks (kDeterministicReduceBlock, NOT per-worker chunks), each block is
// summed left to right, and the block partials are combined in block order
// on the caller. The result is a pure function of the input — unlike
// ParallelReduceSum, whose per-worker partial grouping (and therefore its
// float rounding) changes with the pool width. Use for floating-point
// accumulations that must be bit-identical across execution contexts of
// different sizes (e.g. the serve layer re-running one query's reduction
// under a differently-sized pool must reproduce it exactly).
template <typename T, typename Body>
T ParallelReduceSumDeterministic(int64_t begin, int64_t end, Body&& body) {
  const int64_t n = end - begin;
  if (n <= 0) {
    return T{};
  }
  const int64_t blocks =
      (n + kDeterministicReduceBlock - 1) / kDeterministicReduceBlock;
  std::vector<T> partial(static_cast<size_t>(blocks), T{});
  ParallelFor(0, blocks, [&body, &partial, begin, end](int64_t b) {
    const int64_t lo = begin + b * kDeterministicReduceBlock;
    const int64_t hi = std::min(end, lo + kDeterministicReduceBlock);
    T local{};
    for (int64_t i = lo; i < hi; ++i) {
      local += body(i);
    }
    partial[static_cast<size_t>(b)] = local;
  });
  T total{};
  for (const T& value : partial) {
    total += value;
  }
  return total;
}

// Parallel max-reduction of body(i) over [begin, end); returns `init` when
// the range is empty.
template <typename T, typename Body>
T ParallelReduceMax(int64_t begin, int64_t end, T init, Body&& body) {
  ThreadPool& pool = ThreadPool::Current();
  std::vector<T> partial(static_cast<size_t>(pool.num_threads()), init);
  pool.ParallelForChunks(begin, end, /*grain=*/0,
                         [&body, &partial](int64_t lo, int64_t hi, int worker) {
                           T local = partial[static_cast<size_t>(worker)];
                           for (int64_t i = lo; i < hi; ++i) {
                             T candidate = body(i);
                             if (local < candidate) {
                               local = candidate;
                             }
                           }
                           partial[static_cast<size_t>(worker)] = local;
                         });
  T best = init;
  for (const T& value : partial) {
    if (best < value) {
      best = value;
    }
  }
  return best;
}

// In-place parallel exclusive prefix sum over `values`; returns the grand
// total. Two-pass blocked scan: per-block sums, serial scan of block sums,
// then per-block local scans.
template <typename T>
T ParallelExclusiveScan(std::vector<T>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0) {
    return T{};
  }
  const int64_t blocks = ThreadPool::Current().num_threads() * 4;
  const int64_t block_size = (n + blocks - 1) / blocks;

  std::vector<T> block_sums(static_cast<size_t>(blocks), T{});
  ParallelFor(0, blocks, [&](int64_t b) {
    const int64_t lo = b * block_size;
    const int64_t hi = lo + block_size < n ? lo + block_size : n;
    T sum{};
    for (int64_t i = lo; i < hi; ++i) {
      sum += values[static_cast<size_t>(i)];
    }
    block_sums[static_cast<size_t>(b)] = sum;
  });

  T running{};
  for (int64_t b = 0; b < blocks; ++b) {
    const T sum = block_sums[static_cast<size_t>(b)];
    block_sums[static_cast<size_t>(b)] = running;
    running += sum;
  }

  ParallelFor(0, blocks, [&](int64_t b) {
    const int64_t lo = b * block_size;
    const int64_t hi = lo + block_size < n ? lo + block_size : n;
    T prefix = block_sums[static_cast<size_t>(b)];
    for (int64_t i = lo; i < hi; ++i) {
      const T value = values[static_cast<size_t>(i)];
      values[static_cast<size_t>(i)] = prefix;
      prefix += value;
    }
  });
  return running;
}

// --- Cost-balanced chunking -------------------------------------------------
//
// Fixed-grain chunking splits an index range into equal *counts* of items;
// on skewed per-item costs (power-law degrees) one chunk can hold almost all
// of the work and serialize the loop. The helpers below split by equal
// *cost* instead: a parallel prefix sum over per-item costs turns balancing
// into binary searches for the chunk boundaries, and the chunks then ride
// the work-stealing pool as single work items (grain=1) so a straggler can
// still be stolen around. The snapshot merge's per-vertex passes use them
// (src/snapshot/delta.cc); the EdgeMap kernels keep fixed grains.

// Chunks per worker for a balanced dispatch: enough granularity for the
// stealing to smooth residual imbalance without drowning in dispatch cost.
inline constexpr int64_t kBalancedChunksPerWorker = 8;

// Number of chunks for `total_cost` units of work: aims at
// kBalancedChunksPerWorker chunks per pool worker but never lets a chunk
// fall under `min_chunk_cost` (tiny frontiers should not shatter into
// per-item dispatches). Always >= 1.
inline int64_t BalancedChunkCount(uint64_t total_cost, int64_t min_chunk_cost) {
  const int64_t max_chunks =
      static_cast<int64_t>(ThreadPool::Current().num_threads()) * kBalancedChunksPerWorker;
  if (min_chunk_cost < 1) {
    min_chunk_cost = 1;
  }
  const int64_t by_cost =
      static_cast<int64_t>(total_cost / static_cast<uint64_t>(min_chunk_cost));
  return std::max<int64_t>(1, std::min(max_chunks, by_cost));
}

// Item-aligned balanced chunk boundaries. `pos(i)` must be the monotonically
// non-decreasing cumulative cost before item i, with pos(0) == 0 and
// pos(n) == total cost (an exclusive prefix sum with a total sentinel — a
// CSR offsets array is exactly this shape). Returns num_chunks + 1
// boundaries b with b[0] == 0 and b[num_chunks] == n; chunk c covers items
// [b[c], b[c+1]) and carries ~total/num_chunks cost (exactly, up to the
// granularity of a single item: an item is never split). Boundary c is the
// first item whose cumulative cost reaches c * ceil(total/num_chunks),
// found by binary search.
template <typename Pos>
std::vector<int64_t> BalancedChunkBoundaries(int64_t n, int64_t num_chunks, Pos&& pos) {
  if (num_chunks < 1) {
    num_chunks = 1;
  }
  std::vector<int64_t> bounds(static_cast<size_t>(num_chunks) + 1, 0);
  bounds[static_cast<size_t>(num_chunks)] = n;
  const uint64_t total = static_cast<uint64_t>(pos(n));
  const uint64_t target =
      (total + static_cast<uint64_t>(num_chunks) - 1) / static_cast<uint64_t>(num_chunks);
  for (int64_t c = 1; c < num_chunks; ++c) {
    const uint64_t want = static_cast<uint64_t>(c) * target;
    // First i with pos(i) >= want; starts at the previous boundary so the
    // boundaries are non-decreasing even on plateaus of zero-cost items.
    int64_t lo = bounds[static_cast<size_t>(c) - 1];
    int64_t hi = n;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (static_cast<uint64_t>(pos(mid)) < want) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[static_cast<size_t>(c)] = lo;
  }
  return bounds;
}

// Dispatches pre-computed chunk boundaries on the pool, one chunk per work
// item. body(chunk_begin, chunk_end, worker_id); empty chunks are skipped.
template <typename Body>
void ParallelForBalancedChunks(const std::vector<int64_t>& bounds, Body&& body) {
  const int64_t num_chunks = static_cast<int64_t>(bounds.size()) - 1;
  ParallelForChunks(0, num_chunks, /*grain=*/1,
                    [&bounds, &body](int64_t lo, int64_t hi, int worker) {
                      for (int64_t c = lo; c < hi; ++c) {
                        const int64_t begin = bounds[static_cast<size_t>(c)];
                        const int64_t end = bounds[static_cast<size_t>(c) + 1];
                        if (begin < end) {
                          body(begin, end, worker);
                        }
                      }
                    });
}

// Cost-balanced parallel loop: calls body(chunk_begin, chunk_end, worker_id)
// over [0, n) with chunk boundaries chosen so every chunk carries roughly
// equal total cost(i) (item-aligned; single items are never split). Builds
// the cost prefix with the parallel exclusive scan, finds boundaries by
// binary search, and dispatches chunks as stealable grain-1 work items.
// `min_chunk_cost` bounds the dispatch overhead on small inputs.
template <typename Cost, typename Body>
void ParallelForEdgeBalanced(int64_t n, int64_t min_chunk_cost, Cost&& cost, Body&& body) {
  if (n <= 0) {
    return;
  }
  std::vector<uint64_t> prefix(static_cast<size_t>(n));
  ParallelFor(0, n, [&prefix, &cost](int64_t i) {
    prefix[static_cast<size_t>(i)] = static_cast<uint64_t>(cost(i));
  });
  const uint64_t total = ParallelExclusiveScan(prefix);
  const std::vector<int64_t> bounds = BalancedChunkBoundaries(
      n, BalancedChunkCount(total, min_chunk_cost),
      [&prefix, n, total](int64_t i) { return i < n ? prefix[static_cast<size_t>(i)] : total; });
  ParallelForBalancedChunks(bounds, body);
}

}  // namespace egraph

#endif  // SRC_UTIL_PARALLEL_H_
