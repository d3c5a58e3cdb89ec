#include "src/engine/execution_context.h"

#include "src/obs/timeline.h"

namespace egraph {

ExecutionContext::ExecutionContext(ExecutionContextOptions options)
    : options_(std::move(options)) {
  if (options_.num_threads > 0) {
    private_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

ExecutionContext& ExecutionContext::Default() {
  // Leaked so it outlives every static-destruction-order hazard, like the
  // ThreadPool::Get() singleton it wraps.
  static ExecutionContext* context = new ExecutionContext({.name = "default"});
  return *context;
}

ThreadPool& ExecutionContext::pool() {
  if (private_pool_ != nullptr) {
    return *private_pool_;
  }
  // Default context (and contexts without a private pool) resolve to the
  // calling thread's current binding, so an outer Scope is never overridden
  // by a Run* call that takes the default argument.
  return ThreadPool::Current();
}

ExecutionContext::Scope::Scope(ExecutionContext& context)
    : pool_binding_(context.pool()) {
  if (obs::Timeline::Enabled()) {
    obs::Timeline::SetThreadLabel(context.name());
  }
}

}  // namespace egraph
