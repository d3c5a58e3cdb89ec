#include "src/util/thread_pool.h"

#include "src/obs/timeline.h"
#include "src/util/env.h"

namespace egraph {
namespace {

// Worker id of a thread outside every parallel region.
constexpr int kNoWorker = -1;

thread_local int tls_worker_id = kNoWorker;
thread_local bool tls_in_region = false;
thread_local ThreadPool* tls_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads),
      queues_(num_threads_),
      steal_counts_(num_threads_) {
  threads_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

ThreadPool& ThreadPool::Get() {
  static ThreadPool pool(EnvThreadCount());
  return pool;
}

ThreadPool& ThreadPool::Current() {
  return tls_current_pool != nullptr ? *tls_current_pool : Get();
}

bool ThreadPool::CallRunsAlone() { return !tls_in_region && Current().num_threads() == 1; }

ScopedPoolBinding::ScopedPoolBinding(ThreadPool& pool) : previous_(tls_current_pool) {
  tls_current_pool = &pool;
}

ScopedPoolBinding::~ScopedPoolBinding() { tls_current_pool = previous_; }

uint64_t ThreadPool::steal_count() const {
  uint64_t total = 0;
  for (const StealCounter& counter : steal_counts_) {
    total += counter.value.load(std::memory_order_relaxed);
  }
  return total;
}

void ThreadPool::ParallelForChunks(int64_t begin, int64_t end, int64_t grain,
                                   const std::function<void(int64_t, int64_t, int)>& body) {
  if (begin >= end) {
    return;
  }
  const int64_t count = end - begin;
  if (tls_in_region || num_threads_ == 1) {
    // Nested region or single-threaded pool: run serially in place. Chunking
    // is preserved so that per-chunk setup in the body behaves identically,
    // and chunk spans are still emitted so single-threaded traces show the
    // same run structure as parallel ones. An external caller (not inside
    // any region) runs as worker 0 of this pool for the duration, so the
    // worker id handed to the body is always valid for per-worker buffers.
    const int saved_worker = tls_worker_id;
    const bool saved_in_region = tls_in_region;
    if (!saved_in_region) {
      tls_worker_id = 0;
      tls_in_region = true;
    }
    obs::Timeline::NoteWorker(tls_worker_id);
    const int64_t g = grain > 0 ? grain : count;
    for (int64_t lo = begin; lo < end; lo += g) {
      const int64_t hi = lo + g < end ? lo + g : end;
      obs::TimelineSpan span("pool", "run", hi - lo);
      body(lo, hi, tls_worker_id);
    }
    tls_worker_id = saved_worker;
    tls_in_region = saved_in_region;
    return;
  }

  // Only one region may run at a time; concurrent external callers queue up.
  std::lock_guard<std::mutex> region_guard(region_mutex_);
  obs::TimelineSpan region_span("pool", "region", count);

  int64_t g = grain;
  if (g <= 0) {
    g = count / (static_cast<int64_t>(num_threads_) * 8);
    if (g < 1) {
      g = 1;
    }
  }

  // Distribute chunks round-robin across worker queues.
  for (auto& queue : queues_) {
    queue.chunks.clear();
    queue.next.store(0, std::memory_order_relaxed);
  }
  int64_t lo = begin;
  int target = 0;
  while (lo < end) {
    const int64_t hi = lo + g < end ? lo + g : end;
    queues_[target].chunks.push_back({lo, hi});
    lo = hi;
    target = (target + 1) % num_threads_;
  }

  {
    std::lock_guard<std::mutex> guard(mutex_);
    body_ = &body;
    pending_workers_ = num_threads_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();

  // The calling thread participates as worker 0.
  RunRegion(0);

  if (num_threads_ > 1) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
    body_ = nullptr;
  }
}

void ThreadPool::RunRegion(int worker_id) {
  tls_worker_id = worker_id;
  tls_in_region = true;
  obs::Timeline::NoteWorker(worker_id);
  const auto& body = *body_;

  // Drain own queue first; then steal from victims round-robin.
  for (int offset = 0; offset < num_threads_; ++offset) {
    const int victim = (worker_id + offset) % num_threads_;
    WorkerQueue& queue = queues_[victim];
    const int64_t limit = static_cast<int64_t>(queue.chunks.size());
    while (true) {
      const int64_t index = queue.next.fetch_add(1, std::memory_order_relaxed);
      if (index >= limit) {
        break;
      }
      const bool stolen = offset != 0;
      if (stolen) {
        steal_counts_[static_cast<size_t>(worker_id)].value.fetch_add(
            1, std::memory_order_relaxed);
      }
      const Chunk chunk = queue.chunks[static_cast<size_t>(index)];
      obs::TimelineSpan span("pool", stolen ? "steal" : "run",
                             chunk.end - chunk.begin);
      body(chunk.begin, chunk.end, worker_id);
    }
  }

  tls_in_region = false;
  tls_worker_id = kNoWorker;
}

void ThreadPool::WorkerLoop(int worker_id) {
  const ScopedPoolBinding binding(*this);
  uint64_t seen_epoch = 0;
  while (true) {
    {
      // The wait for the next region is the worker's idle time: with the
      // timeline on, gaps between a worker's run spans show up as explicit
      // idle spans instead of blank track space.
      obs::TimelineSpan idle("pool", "idle");
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) {
        return;
      }
      seen_epoch = epoch_;
    }
    RunRegion(worker_id);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (--pending_workers_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

}  // namespace egraph
