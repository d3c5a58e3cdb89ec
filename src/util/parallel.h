// Parallel primitives built on the work-stealing pool: element-wise loops,
// reductions and prefix sums. These are the building blocks of every layout
// builder (count sort needs a parallel exclusive scan) and of the engine.
// There is one way to split a loop, fixed-size chunks that idle workers
// steal, and one way to reduce, a fold over fixed blocks in block order, so
// every reduction is a pure function of its input at any pool width.
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

// Fixed block size of the reductions below. A power of two big enough that
// the per-block partial vector stays small next to the data.
inline constexpr int64_t kDeterministicReduceBlock = 4096;

// Folds body(i) over [begin, end) with `combine`, starting from `identity`:
// the range is cut into fixed kDeterministicReduceBlock blocks (not
// per-worker chunks), each block is folded left to right, and the block
// results are folded in block order on the caller. The result is a pure
// function of the input whatever the pool width, so a float sum is
// bit-identical on every execution context. Returns `identity` when the
// range is empty.
template <typename T, typename Body, typename Combine>
T ParallelReduce(int64_t begin, int64_t end, T identity, Body&& body, Combine&& combine) {
  const int64_t n = end - begin;
  if (n <= 0) {
    return identity;
  }
  const int64_t blocks =
      (n + kDeterministicReduceBlock - 1) / kDeterministicReduceBlock;
  std::vector<T> partial(static_cast<size_t>(blocks));
  ParallelFor(0, blocks, [&](int64_t b) {
    const int64_t lo = begin + b * kDeterministicReduceBlock;
    const int64_t hi = std::min(end, lo + kDeterministicReduceBlock);
    T local = identity;
    for (int64_t i = lo; i < hi; ++i) {
      local = combine(local, body(i));
    }
    partial[static_cast<size_t>(b)] = local;
  });
  T total = identity;
  for (const T& value : partial) {
    total = combine(total, value);
  }
  return total;
}

// Sum of body(i) over [begin, end).
template <typename T, typename Body>
T ParallelReduceSum(int64_t begin, int64_t end, Body&& body) {
  return ParallelReduce<T>(begin, end, T{}, body, [](T a, const T& b) { return a += b; });
}

// Max of `init` and every body(i) over [begin, end).
template <typename T, typename Body>
T ParallelReduceMax(int64_t begin, int64_t end, T init, Body&& body) {
  return ParallelReduce<T>(begin, end, init, body,
                           [](const T& a, const T& b) { return a < b ? b : a; });
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

}  // namespace egraph

#endif  // SRC_UTIL_PARALLEL_H_
