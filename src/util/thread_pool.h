// Work-stealing thread pool: the parallel runtime substrate standing in for
// the Cilk runtime used by the paper (the paper reports OpenMP and PThreads
// perform comparably, so the specific runtime is not load-bearing).
//
// Parallel loops split their iteration space into chunks that are distributed
// round-robin onto per-worker queues; a worker that drains its own queue
// steals chunks from victims. This matches the paper's description: "threads
// take work items from the queue in large enough chunks to reduce the work
// distribution overheads" and "Cilk balances the work among threads by
// allowing threads to steal work items from one another".
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace egraph {

class ThreadPool {
 public:
  // `num_threads` counts all participants including the calling thread:
  // the pool spawns num_threads - 1 workers and the caller joins in.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide default pool, sized by EG_THREADS (default: hardware
  // concurrency). Library code should prefer Current(), which resolves to
  // this pool unless an execution context has bound its own.
  static ThreadPool& Get();

  // The pool parallel work on this thread should run on: the pool bound by
  // the innermost ScopedPoolBinding (an ExecutionContext with a private
  // pool), falling back to Get(). This is how the default context keeps the
  // old process-wide behaviour while concurrent query contexts get isolated
  // worker sets. A pool's spawned workers are bound to their own pool, so
  // a buffer sized by Current() inside a region covers every worker id the
  // region hands out (the caller runs as worker 0).
  static ThreadPool& Current();

  int num_threads() const { return num_threads_; }

  // True when a call made now runs alone: the calling thread is outside
  // every parallel region and Current() has one thread, so no other thread
  // can run any part of the call and its shared updates need no
  // synchronization. Inside a region it is false whatever the widths: the
  // region's other workers may be running, and the region's caller may
  // resolve Current() to a pool other than the one running the region (one
  // it never bound), whose width says nothing about them.
  static bool CallRunsAlone();

  // Calls body(chunk_begin, chunk_end, worker_id) until [begin, end) is
  // covered. Chunks have `grain` iterations (last chunk may be short);
  // grain <= 0 selects an automatic grain of ~8 chunks per worker.
  // `body` must not throw. Nested calls from inside a worker run the whole
  // range serially on the calling worker.
  void ParallelForChunks(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t, int)>& body);

  // Total number of chunks stolen since construction (telemetry for tests),
  // aggregated across the per-worker tallies.
  uint64_t steal_count() const;

 private:
  struct Chunk {
    int64_t begin;
    int64_t end;
  };
  // Per-worker chunk queue: chunks are preloaded before the region starts
  // and only consumed afterwards, so a lock-free atomic cursor suffices.
  struct alignas(64) WorkerQueue {
    std::vector<Chunk> chunks;
    std::atomic<int64_t> next{0};
  };

  // One cache line per worker: the steal path increments only the stealing
  // worker's own counter (a single shared atomic here was a contention point
  // during steal storms — every steal bounced the same line between cores).
  struct alignas(64) StealCounter {
    std::atomic<uint64_t> value{0};
  };

  void WorkerLoop(int worker_id);
  void RunRegion(int worker_id);

  int num_threads_;
  std::vector<std::thread> threads_;
  std::vector<WorkerQueue> queues_;

  std::mutex region_mutex_;  // serializes whole parallel regions
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;        // incremented per parallel region
  int pending_workers_ = 0;   // workers still running the current region
  bool shutdown_ = false;
  const std::function<void(int64_t, int64_t, int)>* body_ = nullptr;
  std::vector<StealCounter> steal_counts_;  // one per worker
};

// RAII binding of ThreadPool::Current() for the calling thread: parallel
// loops issued while the binding is alive dispatch on `pool` instead of the
// process-wide default. Bindings nest (the previous binding is restored on
// destruction) and are thread-local — binding a pool on a serving thread
// does not redirect any other thread's loops.
class ScopedPoolBinding {
 public:
  explicit ScopedPoolBinding(ThreadPool& pool);
  ~ScopedPoolBinding();

  ScopedPoolBinding(const ScopedPoolBinding&) = delete;
  ScopedPoolBinding& operator=(const ScopedPoolBinding&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace egraph

#endif  // SRC_UTIL_THREAD_POOL_H_
