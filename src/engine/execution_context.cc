#include "src/engine/execution_context.h"

#include "src/obs/timeline.h"

namespace egraph {

ExecutionContext::ExecutionContext(ExecutionContextOptions options)
    : options_(std::move(options)), seed_state_(options_.seed) {
  if (options_.num_threads > 0) {
    private_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

ExecutionContext::ExecutionContext(bool is_default)
    : is_default_(is_default), seed_state_(0) {
  options_.name = "default";
}

ExecutionContext& ExecutionContext::Default() {
  // Leaked so it outlives every static-destruction-order hazard, like the
  // ThreadPool::Get() singleton it wraps.
  static ExecutionContext* context = new ExecutionContext(/*is_default=*/true);
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

uint64_t ExecutionContext::NextSeed() {
  // SplitMix64 with an atomic state advance: each call claims the next
  // point of the stream, then mixes it.
  uint64_t z = seed_state_.fetch_add(0x9E3779B97F4A7C15ULL,
                                     std::memory_order_relaxed) +
               0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ExecutionContext::Scope::Scope(ExecutionContext& context)
    : pool_binding_(context.pool()) {
  if (obs::Timeline::Enabled()) {
    obs::Timeline::SetThreadLabel(context.name());
  }
}

}  // namespace egraph
