// ExecutionContext: everything one caller ("query") needs to run an
// algorithm — the thread pool its parallel loops dispatch to and a private
// EdgeMapScratch — bundled into one object instead of a set of process-wide
// singletons.
//
// Two modes:
//   * ExecutionContext::Default() wraps the process-wide pool
//     (ThreadPool::Get()). Every Run* entry point defaults to it, so
//     single-query code keeps working unchanged.
//   * A constructed ExecutionContext with options.num_threads > 0 owns a
//     PRIVATE pool, so N contexts on N threads run N algorithms genuinely
//     concurrently — no shared region mutex, no shared scratch. This is
//     what QuerySession gives each of its workers.
//
// Every run's trace counts only its own rounds (src/obs/trace.h) and lands
// in the one process-wide TraceSink, whichever context ran it.
//
// The context reaches code that never sees an ExecutionContext& (EdgeMap
// kernels, scans, layout builders) through a thread-local binding: Scope
// binds the context's pool as ThreadPool::Current() on the calling thread
// for its lifetime. Algorithms open a Scope at entry; everything beneath
// them inherits the context.
//
// Concurrency contract: one context serves ONE running query at a time
// (its scratch follows the EdgeMapScratch contract). Distinct contexts are
// fully independent and may run concurrently against the same frozen
// GraphHandle.
#ifndef SRC_ENGINE_EXECUTION_CONTEXT_H_
#define SRC_ENGINE_EXECUTION_CONTEXT_H_

#include <memory>
#include <string>

#include "src/engine/edge_map_scratch.h"
#include "src/util/thread_pool.h"

namespace egraph {

struct ExecutionContextOptions {
  // Label for timeline tracks and diagnostics ("serve.worker3").
  std::string name = "ctx";
  // > 0: the context owns a private pool with this many threads, so its
  // parallel loops never contend on the process-wide pool's region lock.
  // 0: the context dispatches to the caller's current pool binding.
  int num_threads = 0;
};

class ExecutionContext {
 public:
  ExecutionContext() : ExecutionContext(ExecutionContextOptions{}) {}
  explicit ExecutionContext(ExecutionContextOptions options);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // The process-wide default context: ThreadPool::Get() (or whatever outer
  // Scope is already bound on the calling thread — the default context
  // never overrides an explicit binding).
  static ExecutionContext& Default();

  // The pool this context's parallel loops run on.
  ThreadPool& pool();

  // Reusable per-round EdgeMap scratch. One EdgeMap call at a time — which
  // the one-query-per-context contract guarantees.
  EdgeMapScratch& edge_map_scratch() { return scratch_; }

  const std::string& name() const { return options_.name; }

  // RAII: binds the context's pool as the calling thread's
  // ThreadPool::Current() (and labels the thread's timeline track with the
  // context name). Algorithms open one at entry; bindings nest and are
  // restored on destruction.
  class Scope {
   public:
    explicit Scope(ExecutionContext& context);

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScopedPoolBinding pool_binding_;
  };

 private:
  ExecutionContextOptions options_;
  std::unique_ptr<ThreadPool> private_pool_;  // null: shared/current pool
  EdgeMapScratch scratch_;
};

}  // namespace egraph

#endif  // SRC_ENGINE_EXECUTION_CONTEXT_H_
