// Tests for the parallel runtime substrate: thread pool, parallel
// primitives, bitmap, RNG, spinlocks and atomics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <latch>
#include <numeric>
#include <set>
#include <thread>

#include "src/util/atomics.h"
#include "src/util/bitmap.h"
#include "src/util/env.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/spinlock.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "tests/pool_widths.h"

namespace egraph {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(0, 10000, [&](int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](int64_t) { calls.fetch_add(1); });
  ParallelFor(7, 3, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ChunkingRespectsGrain) {
  std::mutex mutex;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForChunks(0, 1000, 128, [&](int64_t lo, int64_t hi, int /*worker*/) {
    std::lock_guard<std::mutex> guard(mutex);
    chunks.push_back({lo, hi});
  });
  int64_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LE(hi - lo, 128);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 1000);
}

TEST(ThreadPool, NestedParallelForRunsSerially) {
  std::atomic<int64_t> total{0};
  ParallelFor(0, 8, [&](int64_t) {
    // Nested region: must not deadlock, must still cover its range.
    ParallelFor(0, 100, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 800);

  // A nested region runs inline on the calling worker, so every inner body
  // call gets the enclosing chunk's worker id: per-worker buffers indexed
  // by it (CountedChunks' tallies, a sparse round's output lists) stay
  // private to one thread. Checked on the process pool and a private one.
  ThreadPool local(4);
  for (ThreadPool* pool : {&ThreadPool::Get(), &local}) {
    const int workers = pool->num_threads();
    ASSERT_LE(workers, 64);  // every worker's queue gets a chunk
    // Each worker holds its first chunk until all hold one, so every worker
    // runs nested regions (the caller alone could drain 64 tiny chunks).
    std::latch all_in(workers);
    std::vector<std::atomic<bool>> entered(static_cast<size_t>(workers));
    std::atomic<int64_t> inner_calls{0};
    std::atomic<bool> same_worker{true};
    pool->ParallelForChunks(0, 64, 1, [&](int64_t, int64_t, int outer) {
      if (!entered[static_cast<size_t>(outer)].exchange(true)) {
        all_in.arrive_and_wait();
      }
      pool->ParallelForChunks(0, 10, 3, [&](int64_t, int64_t, int inner) {
        inner_calls.fetch_add(1);
        if (inner != outer) {
          same_worker.store(false);
        }
      });
    });
    EXPECT_EQ(inner_calls.load(), 64 * 4) << pool->num_threads() << " threads";
    EXPECT_TRUE(same_worker.load()) << pool->num_threads() << " threads";
  }

  // An external caller of a 1-thread pool runs the region as its worker 0.
  ThreadPool single(1);
  int seen = -1;
  single.ParallelForChunks(0, 1, 1, [&](int64_t, int64_t, int worker) { seen = worker; });
  EXPECT_EQ(seen, 0);
}

TEST(ThreadPool, WorkerIdsWithinBounds) {
  const int workers = ThreadPool::Get().num_threads();
  std::atomic<bool> ok{true};
  ParallelForChunks(0, 1000, 1, [&](int64_t, int64_t, int worker) {
    if (worker < 0 || worker >= workers) {
      ok.store(false);
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, ConcurrentExternalCallersSerialize) {
  // Two plain threads issuing regions concurrently must not corrupt state.
  std::atomic<int64_t> total{0};
  auto work = [&] {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(0, 1000, [&](int64_t) { total.fetch_add(1); });
    }
  };
  std::thread a(work);
  std::thread b(work);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * 1000);
}

TEST(ThreadPool, LocalPoolStealsUnderImbalance) {
  // A dedicated 4-worker pool with grain 1 over imbalanced work: round-robin
  // distribution puts chunks on every queue, and since worker 0 (the caller)
  // is the only one guaranteed to run long items, the others must steal or
  // finish their own — either way every index is covered exactly once and
  // steal accounting is consistent.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelForChunks(0, 257, /*grain=*/1, [&](int64_t lo, int64_t hi, int /*worker*/) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  int64_t sum = 0;  // no synchronization needed: single worker
  pool.ParallelForChunks(0, 1000, 64,
                         [&](int64_t lo, int64_t hi, int /*worker*/) { sum += hi - lo; });
  EXPECT_EQ(sum, 1000);
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(ParallelReduce, SumMatchesSerial) {
  const int64_t n = 123457;
  const int64_t got = ParallelReduceSum<int64_t>(0, n, [](int64_t i) { return i; });
  EXPECT_EQ(got, n * (n - 1) / 2);

  // A float sum rounds by its grouping: fixed blocks folded in block order
  // give the same bits at every pool width.
  const auto term = [](int64_t i) { return 1.0f / static_cast<float>(i + 1); };
  float expected = 0.0f;
  for (int64_t lo = 0; lo < n; lo += kDeterministicReduceBlock) {
    float block = 0.0f;
    for (int64_t i = lo; i < std::min(n, lo + kDeterministicReduceBlock); ++i) {
      block += term(i);
    }
    expected += block;
  }
  AtPoolWidths({1, 2, 4}, [&] {
    const float sum = ParallelReduceSum<float>(0, n, term);
    EXPECT_EQ(std::bit_cast<uint32_t>(sum), std::bit_cast<uint32_t>(expected));
  });
}

TEST(ParallelReduce, MaxMatchesSerial) {
  std::vector<int> values(10007);
  uint64_t seed = 99;
  for (auto& v : values) {
    v = static_cast<int>(SplitMix64(seed) % 1000000);
  }
  const int expected = *std::max_element(values.begin(), values.end());
  AtPoolWidths({1, 2, 4}, [&] {
    const int got = ParallelReduceMax<int>(
        0, static_cast<int64_t>(values.size()), -1,
        [&](int64_t i) { return values[static_cast<size_t>(i)]; });
    EXPECT_EQ(got, expected);
  });
}

TEST(ParallelReduce, MaxOfEmptyRangeIsInit) {
  EXPECT_EQ(ParallelReduceMax<int>(0, 0, -42, [](int64_t) { return 7; }), -42);
}

TEST(ParallelScan, MatchesSerialExclusiveScan) {
  for (const size_t n : {0u, 1u, 2u, 1000u, 65536u, 100001u}) {
    std::vector<uint64_t> values(n);
    uint64_t seed = n;
    for (auto& v : values) {
      v = SplitMix64(seed) % 100;
    }
    std::vector<uint64_t> expected(values);
    uint64_t running = 0;
    for (auto& v : expected) {
      const uint64_t x = v;
      v = running;
      running += x;
    }
    std::vector<uint64_t> got(values);
    const uint64_t total = ParallelExclusiveScan(got);
    EXPECT_EQ(total, running) << "n=" << n;
    EXPECT_EQ(got, expected) << "n=" << n;
  }
}

TEST(Bitmap, SetGetCount) {
  Bitmap bitmap(1000);
  EXPECT_EQ(bitmap.Count(), 0);
  bitmap.Set(0);
  bitmap.Set(63);
  bitmap.Set(64);
  bitmap.Set(999);
  EXPECT_TRUE(bitmap.Get(0));
  EXPECT_TRUE(bitmap.Get(63));
  EXPECT_TRUE(bitmap.Get(64));
  EXPECT_TRUE(bitmap.Get(999));
  EXPECT_FALSE(bitmap.Get(1));
  EXPECT_EQ(bitmap.Count(), 4);
}

TEST(Bitmap, TestAndSetFlipsOnce) {
  Bitmap bitmap(128);
  EXPECT_TRUE(bitmap.TestAndSet(77));
  EXPECT_FALSE(bitmap.TestAndSet(77));
  EXPECT_TRUE(bitmap.Get(77));
}

TEST(Bitmap, TestAndSetConcurrentExactlyOneWinner) {
  Bitmap bitmap(64);
  std::atomic<int> winners{0};
  ParallelFor(0, 10000, [&](int64_t) {
    if (bitmap.TestAndSet(13)) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
}

TEST(Bitmap, ToVectorSortedAndComplete) {
  Bitmap bitmap(500);
  std::set<uint32_t> expected{3, 64, 65, 127, 128, 400, 499};
  for (const uint32_t v : expected) {
    bitmap.Set(v);
  }
  std::vector<uint32_t> got;
  bitmap.ToVector(got);
  EXPECT_EQ(std::vector<uint32_t>(expected.begin(), expected.end()), got);
}

TEST(Bitmap, ClearResets) {
  Bitmap bitmap(256);
  bitmap.Set(100);
  bitmap.Clear();
  EXPECT_EQ(bitmap.Count(), 0);
  EXPECT_FALSE(bitmap.Get(100));
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  double min = 1.0;
  double max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  // Coverage sanity: values spread over the interval.
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(Rng, BoundedRoughlyUniform) {
  Xoshiro256 rng(11);
  std::vector<int> histogram(10, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    ++histogram[rng.NextBounded(10)];
  }
  for (const int count : histogram) {
    EXPECT_NEAR(count, samples / 10, samples / 100);
  }
}

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  int64_t counter = 0;  // unsynchronized on purpose: the lock must protect it
  ParallelFor(0, 20000, [&](int64_t) {
    SpinlockGuard guard(lock);
    ++counter;
  });
  EXPECT_EQ(counter, 20000);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(StripedLocks, RoundsUpToPowerOfTwo) {
  StripedLocks locks(1000);
  EXPECT_EQ(locks.stripe_count(), 1024u);
  // Same key always maps to the same lock.
  EXPECT_EQ(&locks.For(7), &locks.For(7));
  EXPECT_EQ(&locks.For(7), &locks.For(7 + 1024));
}

TEST(Atomics, AtomicMinConcurrent) {
  uint32_t value = 1000000;
  ParallelFor(0, 10000, [&](int64_t i) { AtomicMin(&value, static_cast<uint32_t>(i + 5)); });
  EXPECT_EQ(value, 5u);
}

TEST(Atomics, AtomicMinReturnsTrueOnlyWhenLowered) {
  uint32_t value = 10;
  EXPECT_FALSE(AtomicMin(&value, 10u));
  EXPECT_FALSE(AtomicMin(&value, 11u));
  EXPECT_TRUE(AtomicMin(&value, 9u));
  EXPECT_EQ(value, 9u);
}

TEST(Atomics, AtomicAddFloatConcurrent) {
  float value = 0.0f;
  ParallelFor(0, 4096, [&](int64_t) { AtomicAdd(&value, 0.25f); });
  EXPECT_FLOAT_EQ(value, 1024.0f);
}

TEST(Atomics, AtomicCasClaimsOnce) {
  uint32_t value = 0xFFFFFFFFu;
  std::atomic<int> winners{0};
  ParallelFor(0, 1000, [&](int64_t i) {
    if (AtomicCas(&value, 0xFFFFFFFFu, static_cast<uint32_t>(i))) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(value, 0xFFFFFFFFu);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "23"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer-name"), std::string::npos);
  EXPECT_NE(out.find("| 23"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NE(table.ToString().find("only"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::FormatSeconds(1.23456), "1.235");
  EXPECT_EQ(Table::FormatPercent(0.26), "26.0%");
  EXPECT_EQ(Table::FormatCount(1234567), "1234567");
}

TEST(Env, DefaultsWhenUnset) {
  ::unsetenv("EG_TEST_UNSET_VAR");
  EXPECT_EQ(EnvInt64("EG_TEST_UNSET_VAR", 17), 17);
  EXPECT_DOUBLE_EQ(EnvDouble("EG_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_EQ(EnvString("EG_TEST_UNSET_VAR", "dflt"), "dflt");
}

TEST(Env, ParsesValues) {
  ::setenv("EG_TEST_VAR", "123", 1);
  EXPECT_EQ(EnvInt64("EG_TEST_VAR", 0), 123);
  ::setenv("EG_TEST_VAR", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("EG_TEST_VAR", 0.0), 2.5);
  ::setenv("EG_TEST_VAR", "garbage", 1);
  EXPECT_EQ(EnvInt64("EG_TEST_VAR", 7), 7);
  ::unsetenv("EG_TEST_VAR");
}

}  // namespace
}  // namespace egraph
