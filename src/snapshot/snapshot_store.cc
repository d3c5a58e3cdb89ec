#include "src/snapshot/snapshot_store.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/engine/execution_context.h"
#include "src/layout/csr_builder.h"
#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace egraph::snapshot {

namespace {

// The store's obs counters, resolved once (Registry lookup takes a mutex).
struct SnapshotCounters {
  obs::Counter& epochs_published;
  obs::Counter& updates_applied;
  obs::Counter& updates_merged;
  obs::Counter& tombstones_dropped;
  obs::Counter& edges_inserted;
  obs::Counter& merge_micros;
  obs::Counter& full_rebuild_micros;
  obs::Histogram& delta_depth;

  static SnapshotCounters& Get() {
    static SnapshotCounters counters{
        obs::Registry::Get().GetCounter("snapshot.epochs_published"),
        obs::Registry::Get().GetCounter("snapshot.updates_applied"),
        obs::Registry::Get().GetCounter("snapshot.updates_merged"),
        obs::Registry::Get().GetCounter("snapshot.tombstones_dropped"),
        obs::Registry::Get().GetCounter("snapshot.edges_inserted"),
        obs::Registry::Get().GetCounter("snapshot.merge_micros"),
        obs::Registry::Get().GetCounter("snapshot.full_rebuild_micros"),
        obs::Registry::Get().GetHistogram("snapshot.delta_depth"),
    };
    return counters;
  }
};

}  // namespace

SnapshotStore::SnapshotStore(EdgeList initial, SnapshotOptions options)
    : options_(options) {
  // Canonicalize: epochs are unweighted (delta.h), and the vertex count must
  // cover every endpoint so the CSR is well-formed.
  initial.mutable_weights().clear();
  initial.RecomputeNumVertices();

  BuildStats build_stats;
  Csr out = BuildCsr(initial, EdgeDirection::kOut, options_.method, &build_stats);
  double out_seconds = build_stats.seconds + out.SortNeighborLists();

  // The epoch handle owns the canonical (src-major, sorted) edge list so
  // edge-array queries and full rebuilds see exactly the CSR's multiset.
  EdgeList canonical = EdgeListFromCsr(out);
  auto handle = std::make_shared<GraphHandle>(std::move(canonical));
  handle->InstallCsr(EdgeDirection::kOut, std::move(out), out_seconds);

  if (options_.build_in_csr && !options_.symmetric) {
    BuildStats in_stats;
    Csr in = BuildCsr(handle->edges(), EdgeDirection::kIn, options_.method, &in_stats);
    const double in_seconds = in_stats.seconds + in.SortNeighborLists();
    handle->InstallCsr(EdgeDirection::kIn, std::move(in), in_seconds);
  }
  if (options_.symmetric) {
    // Alias the in-CSR onto the out-CSR (section 6.1.3: symmetric inputs
    // pay nothing extra for pull). The out CSR is installed, so nothing is
    // rebuilt here.
    PrepareConfig alias;
    alias.layout = Layout::kAdjacency;
    alias.need_out = true;
    alias.need_in = true;
    alias.symmetric_input = true;
    handle->Prepare(alias);
  }
  handle->Freeze();

  current_ = Snapshot{0, std::move(handle)};
  chain_.push_back(ChainEntry{0, current_.handle});
  if (options_.background_refreeze) {
    refreeze_thread_ = std::thread([this] { BackgroundLoop(); });
  }
}

SnapshotStore::~SnapshotStore() {
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    stop_ = true;
  }
  delta_cv_.notify_all();
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
}

Snapshot SnapshotStore::Pin() const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  return current_;
}

void SnapshotStore::Apply(std::span<const EdgeUpdate> updates) {
  if (updates.empty()) {
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    delta_.insert(delta_.end(), updates.begin(), updates.end());
    wake = delta_.size() >= options_.refreeze_threshold;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.updates_applied += static_cast<int64_t>(updates.size());
  }
  SnapshotCounters::Get().updates_applied.Add(static_cast<int64_t>(updates.size()));
  if (wake && options_.background_refreeze) {
    delta_cv_.notify_one();
  }
}

Snapshot SnapshotStore::Refreeze() {
  MergeAndPublish();
  return Pin();
}

size_t SnapshotStore::delta_depth() const {
  std::lock_guard<std::mutex> lock(delta_mutex_);
  return delta_.size();
}

SnapshotStoreStats SnapshotStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

namespace {

// Bytes a live epoch keeps resident: its CSRs (skipping a symmetric in-CSR
// that merely aliases the out-CSR) plus its canonical edge list.
int64_t HandleRetainedBytes(const GraphHandle& handle) {
  int64_t bytes = 0;
  if (handle.has_out_csr()) {
    bytes += static_cast<int64_t>(handle.out_csr().MemoryBytes());
  }
  if (handle.has_in_csr() && &handle.in_csr() != &handle.out_csr()) {
    bytes += static_cast<int64_t>(handle.in_csr().MemoryBytes());
  }
  const EdgeList& edges = handle.edges();
  bytes += static_cast<int64_t>(edges.edges().capacity() * sizeof(Edge) +
                                edges.weights().capacity() * sizeof(float));
  return bytes;
}

}  // namespace

SnapshotChainStats SnapshotStore::chain_stats() const {
  SnapshotChainStats out;
  std::lock_guard<std::mutex> lock(current_mutex_);
  out.newest_epoch = current_.epoch;
  size_t kept = 0;
  for (ChainEntry& entry : chain_) {
    const std::shared_ptr<GraphHandle> handle = entry.handle.lock();
    if (!handle) {
      continue;  // retired: its last Snapshot dropped
    }
    if (out.chain_length == 0) {
      out.oldest_live_epoch = entry.epoch;
    }
    ++out.chain_length;
    out.retained_bytes += HandleRetainedBytes(*handle);
    // Self-move-assignment would empty the weak_ptr (libstdc++), forgetting
    // a live epoch; only move entries whose slot actually changes.
    if (&chain_[kept] != &entry) {
      chain_[kept] = std::move(entry);
    }
    ++kept;
  }
  chain_.resize(kept);
  return out;
}

void SnapshotStore::BackgroundLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(delta_mutex_);
      delta_cv_.wait(lock, [this] {
        return stop_ || delta_.size() >= options_.refreeze_threshold;
      });
      if (stop_) {
        return;
      }
    }
    MergeAndPublish();
  }
}

void SnapshotStore::MergeAndPublish() {
  // One merge at a time: Refreeze() callers and the background thread
  // serialize here, never under current_mutex_ (readers never wait).
  std::lock_guard<std::mutex> merge_lock(merge_mutex_);

  std::vector<EdgeUpdate> delta;
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    delta.swap(delta_);
  }
  if (delta.empty()) {
    return;
  }
  SnapshotCounters& counters = SnapshotCounters::Get();
  counters.delta_depth.Record(static_cast<int64_t>(delta.size()));

  // Optional private pool: refreezes then never contend with query
  // contexts for the caller's pool.
  std::optional<ExecutionContext> merge_context;
  std::optional<ExecutionContext::Scope> merge_scope;
  if (options_.merge_threads > 0) {
    ExecutionContextOptions context_options;
    context_options.name = "snapshot.refreeze";
    context_options.num_threads = options_.merge_threads;
    merge_context.emplace(context_options);
    merge_scope.emplace(*merge_context);
  }

  const Snapshot base = Pin();
  const std::vector<PairEffect> effects = CompressUpdates(delta);
  const VertexId num_vertices =
      std::max(base.handle->num_vertices(), UpdateVertexBound(delta));

  std::shared_ptr<GraphHandle> next;
  MergeStats out_stats;
  double merge_seconds = 0.0;
  double rebuild_seconds = 0.0;

  if (options_.strategy == RefreezeStrategy::kIncrementalMerge) {
    Csr merged = MergeCsr(base.handle->out_csr(), effects, num_vertices, &out_stats);
    merge_seconds = out_stats.seconds;
    next = std::make_shared<GraphHandle>(EdgeListFromCsr(merged));
    next->InstallCsr(EdgeDirection::kOut, std::move(merged), out_stats.seconds);
    if (options_.build_in_csr && !options_.symmetric) {
      MergeStats in_stats;
      const std::vector<PairEffect> transposed = TransposeEffects(effects);
      Csr merged_in =
          MergeCsr(base.handle->in_csr(), transposed, num_vertices, &in_stats);
      merge_seconds += in_stats.seconds;
      next->InstallCsr(EdgeDirection::kIn, std::move(merged_in), in_stats.seconds);
    }
  } else {
    // Full rebuild: the paper's Table-2 radix build, from scratch, over the
    // updated edge multiset — the cost the merge exists to avoid.
    Timer rebuild_timer;
    const EdgeList updated = ApplyUpdatesToEdgeList(base.handle->edges(), delta);
    BuildStats build_stats;
    Csr rebuilt = BuildCsr(updated, EdgeDirection::kOut, options_.method, &build_stats);
    rebuilt.SortNeighborLists();
    out_stats.edges_out = rebuilt.num_edges();
    for (const PairEffect& effect : effects) {
      out_stats.inserted += effect.adds;
    }
    out_stats.tombstoned =
        base.handle->num_edges() + out_stats.inserted - rebuilt.num_edges();
    next = std::make_shared<GraphHandle>(EdgeListFromCsr(rebuilt));
    next->InstallCsr(EdgeDirection::kOut, std::move(rebuilt), 0.0);
    if (options_.build_in_csr && !options_.symmetric) {
      Csr rebuilt_in = BuildCsr(updated, EdgeDirection::kIn, options_.method);
      rebuilt_in.SortNeighborLists();
      next->InstallCsr(EdgeDirection::kIn, std::move(rebuilt_in), 0.0);
    }
    rebuild_seconds = rebuild_timer.Seconds();
    out_stats.seconds = rebuild_seconds;
  }

  if (options_.symmetric) {
    PrepareConfig alias;
    alias.layout = Layout::kAdjacency;
    alias.need_out = true;
    alias.need_in = true;
    alias.symmetric_input = true;
    next->Prepare(alias);
  }
  next->Freeze();

  uint64_t epoch = 0;
  {
    // RCU-style publication: the fully built, frozen epoch swaps in with a
    // pointer assignment. In-flight readers keep the epoch they pinned; the
    // old epoch frees when its last Snapshot drops.
    std::lock_guard<std::mutex> lock(current_mutex_);
    epoch = current_.epoch + 1;
    current_ = Snapshot{epoch, std::move(next)};
    chain_.push_back(ChainEntry{epoch, current_.handle});
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.epoch = epoch;
    stats_.epochs_published += 1;
    stats_.updates_merged += static_cast<int64_t>(delta.size());
    stats_.tombstones_dropped += out_stats.tombstoned;
    stats_.edges_inserted += out_stats.inserted;
    stats_.merge_seconds += merge_seconds;
    stats_.full_rebuild_seconds += rebuild_seconds;
  }
  counters.epochs_published.Increment();
  counters.updates_merged.Add(static_cast<int64_t>(delta.size()));
  counters.tombstones_dropped.Add(static_cast<int64_t>(out_stats.tombstoned));
  counters.edges_inserted.Add(static_cast<int64_t>(out_stats.inserted));
  counters.merge_micros.Add(static_cast<int64_t>(merge_seconds * 1e6));
  counters.full_rebuild_micros.Add(static_cast<int64_t>(rebuild_seconds * 1e6));
}

}  // namespace egraph::snapshot
