#include "src/serve/query_session.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/obs/metrics.h"
#include "src/serve/checksum.h"

namespace egraph::serve {

namespace {

// Per-kind latency histograms, resolved once per kind (Registry lookup
// takes a mutex; completions happen at QPS rate). Microsecond samples: the
// log2 buckets then resolve sub-millisecond latencies to within 2x, and
// int64 holds ~292k years.
struct KindLatencyMetrics {
  obs::Histogram& queue_wait_us;
  obs::Histogram& execute_us;
  obs::Histogram& total_us;

  static const KindLatencyMetrics& ForKind(QueryKind kind) {
    static const KindLatencyMetrics metrics[] = {
        Make(QueryKind::kBfs), Make(QueryKind::kSssp),
        Make(QueryKind::kPagerank), Make(QueryKind::kWcc)};
    return metrics[static_cast<size_t>(kind)];
  }

 private:
  static KindLatencyMetrics Make(QueryKind kind) {
    const std::string prefix = std::string("serve.") + QueryKindName(kind);
    return KindLatencyMetrics{
        obs::Registry::Get().GetHistogram(prefix + ".queue_wait_us"),
        obs::Registry::Get().GetHistogram(prefix + ".execute_us"),
        obs::Registry::Get().GetHistogram(prefix + ".total_us")};
  }
};

int64_t Micros(double seconds) { return static_cast<int64_t>(seconds * 1e6); }

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBfs:
      return "bfs";
    case QueryKind::kSssp:
      return "sssp";
    case QueryKind::kPagerank:
      return "pagerank";
    case QueryKind::kWcc:
      return "wcc";
  }
  return "?";
}

bool ParseQueryKind(const std::string& name, QueryKind* kind) {
  if (name == "bfs") {
    *kind = QueryKind::kBfs;
  } else if (name == "sssp") {
    *kind = QueryKind::kSssp;
  } else if (name == "pagerank") {
    *kind = QueryKind::kPagerank;
  } else if (name == "wcc") {
    *kind = QueryKind::kWcc;
  } else {
    return false;
  }
  return true;
}

std::vector<ServeQuery> ReadQueryFile(const std::string& path,
                                      const RunConfig& base_config) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("serve: cannot read query file " + path);
  }
  std::vector<ServeQuery> queries;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string algo;
    if (!(tokens >> algo)) {
      continue;  // blank / comment-only line
    }
    ServeQuery query;
    query.id = static_cast<int64_t>(queries.size());
    query.config = base_config;
    if (!ParseQueryKind(algo, &query.kind)) {
      throw std::runtime_error("serve: unknown algorithm '" + algo + "' at " +
                               path + ":" + std::to_string(line_number));
    }
    int64_t source = 0;
    if (tokens >> source) {
      query.source = static_cast<VertexId>(source);
    }
    queries.push_back(query);
  }
  return queries;
}

QuerySession::QuerySession(GraphHandle& handle, QuerySessionOptions options)
    : handle_(&handle), options_(std::move(options)) {
  handle_->Freeze();
  if (options_.slow_query_seconds > 0.0) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(options_.slow_query_seconds);
  }
  StartWorkers();
}

QuerySession::QuerySession(snapshot::SnapshotStore& store, QuerySessionOptions options)
    : store_(&store), options_(std::move(options)) {
  // Every epoch the store publishes is already frozen; there is nothing to
  // freeze here. Queries pin their epoch in Submit.
  if (options_.slow_query_seconds > 0.0) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(options_.slow_query_seconds);
  }
  StartWorkers();
}

void QuerySession::StartWorkers() {
  const int concurrency = options_.concurrency < 1 ? 1 : options_.concurrency;
  worker_results_.resize(static_cast<size_t>(concurrency));
  workers_.reserve(static_cast<size_t>(concurrency));
  for (int i = 0; i < concurrency; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QuerySession::~QuerySession() { Drain(); }

SubmitStatus QuerySession::Submit(const ServeQuery& query) {
  // Pin outside the queue lock: Pin() takes the store's own mutex, and a
  // rejected submission just drops the snapshot again. The pin happening
  // (logically) at Submit time is the isolation contract: whatever epoch is
  // current when the producer submits is the epoch the query reads.
  Pending pending;
  pending.query = query;
  pending.trace.submit_ns = obs::RequestNowNs();
  if (store_ != nullptr) {
    pending.snap = store_->Pin();
    pending.trace.epoch = pending.snap.epoch;
    pending.trace.delta_depth_at_pin =
        static_cast<int64_t>(store_->delta_depth());
  }
  {
    std::lock_guard<std::mutex> guard(mutex_);
    // Closed wins over full: once a drain has begun the session will never
    // take this query, and the producer must not be told to retry.
    if (closed_) {
      rejected_closed_.fetch_add(1, std::memory_order_relaxed);
      return SubmitStatus::kClosed;
    }
    if (queue_.size() >= options_.queue_capacity) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return SubmitStatus::kQueueFull;
    }
    // Admission decided: the queue-wait phase starts here.
    pending.trace.admit_ns = obs::RequestNowNs();
    queue_.push_back(std::move(pending));
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return SubmitStatus::kAccepted;
}

std::vector<ServeResult> QuerySession::Drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (drained_) {
      return results_;
    }
    if (draining_) {
      // Another thread is already draining: wait for it rather than
      // double-joining the workers.
      drained_cv_.wait(lock, [this] { return drained_; });
      return results_;
    }
    draining_ = true;
    closed_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);  // vs late Submit calls
  for (const std::vector<ServeResult>& partial : worker_results_) {
    results_.insert(results_.end(), partial.begin(), partial.end());
  }
  std::sort(results_.begin(), results_.end(),
            [](const ServeResult& a, const ServeResult& b) { return a.id < b.id; });
  final_wall_seconds_ = wall_timer_.Seconds();
  drained_ = true;
  lock.unlock();
  drained_cv_.notify_all();
  return results_;
}

QuerySessionStats QuerySession::stats() const {
  QuerySessionStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  stats.rejected_closed = rejected_closed_.load(std::memory_order_relaxed);
  stats.rejected = stats.rejected_full + stats.rejected_closed;
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stats.queue_depth = static_cast<int64_t>(queue_.size());
    stats.wall_seconds = drained_ ? final_wall_seconds_ : wall_timer_.Seconds();
  }
  stats.qps = stats.wall_seconds > 0.0
                  ? static_cast<double>(stats.completed) / stats.wall_seconds
                  : 0.0;
  return stats;
}

void QuerySession::WorkerLoop(int worker_index) {
  ExecutionContextOptions ctx_options;
  ctx_options.name = "serve.w" + std::to_string(worker_index);
  // A context with num_threads <= 0 owns no pool and would run every worker's
  // ParallelFor on the process-wide pool, which serializes whole regions.
  ctx_options.num_threads = std::max(1, options_.threads_per_query);
  ExecutionContext ctx(ctx_options);

  while (true) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // closed and drained
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    pending.trace.dequeue_ns = obs::RequestNowNs();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    ServeResult result = Execute(ResolveHandle(pending), pending, ctx, worker_index);
    result.epoch = pending.snap.epoch;
    RecordCompletion(result);
    worker_results_[static_cast<size_t>(worker_index)].push_back(result);
    // The pinned snapshot drops here: a retired epoch frees as soon as its
    // last in-flight query completes.
  }
}

ServeResult QuerySession::Execute(GraphHandle& handle, const Pending& pending,
                                  ExecutionContext& ctx, int worker_index) {
  const ServeQuery& query = pending.query;
  ServeResult result;
  result.id = query.id;
  result.kind = query.kind;
  result.worker = worker_index;
  result.trace = pending.trace;
  result.trace.exec_start_ns = obs::RequestNowNs();
  Timer timer;
  switch (query.kind) {
    case QueryKind::kBfs: {
      const BfsResult run = RunBfs(handle, query.source, query.config, ctx);
      result.iterations = run.stats.rounds();
      result.checksum = ChecksumBfs(run.parent);
      result.ok = true;
      break;
    }
    case QueryKind::kSssp: {
      const SsspResult run = RunSssp(handle, query.source, query.config, ctx);
      result.iterations = run.stats.rounds();
      result.checksum = ChecksumSssp(run.dist);
      result.ok = true;
      break;
    }
    case QueryKind::kPagerank: {
      PagerankOptions options;
      options.iterations = query.iterations;
      const PagerankResult run = RunPagerank(handle, options, query.config, ctx);
      result.iterations = run.stats.rounds();
      result.checksum = ChecksumPagerank(run.rank);
      result.ok = true;
      break;
    }
    case QueryKind::kWcc: {
      const WccResult run = RunWcc(handle, query.config, ctx);
      result.iterations = run.stats.rounds();
      result.checksum = ChecksumWcc(run.label);
      result.ok = true;
      break;
    }
  }
  result.seconds = timer.Seconds();
  result.trace.done_ns = obs::RequestNowNs();
  return result;
}

void QuerySession::RecordCompletion(const ServeResult& result) {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  const KindLatencyMetrics& metrics = KindLatencyMetrics::ForKind(result.kind);
  metrics.queue_wait_us.Record(Micros(result.trace.QueueWaitSeconds()));
  metrics.execute_us.Record(Micros(result.trace.ExecuteSeconds()));
  metrics.total_us.Record(Micros(result.trace.TotalSeconds()));
  if (slow_log_ != nullptr) {
    obs::SlowQueryRecord record;
    record.id = result.id;
    record.kind = QueryKindName(result.kind);
    record.worker = result.worker;
    record.trace = result.trace;
    slow_log_->MaybeRecord(record);
  }
}

std::vector<obs::GaugeSample> ServeGauges(const QuerySession& session,
                                          const snapshot::SnapshotStore* store) {
  const QuerySessionStats stats = session.stats();
  std::vector<obs::GaugeSample> gauges = {
      {"serve.queue_depth", static_cast<double>(stats.queue_depth)},
      {"serve.in_flight", static_cast<double>(stats.in_flight)},
      {"serve.submitted", static_cast<double>(stats.submitted)},
      {"serve.completed", static_cast<double>(stats.completed)},
      {"serve.rejected_full", static_cast<double>(stats.rejected_full)},
      {"serve.rejected_closed", static_cast<double>(stats.rejected_closed)},
      {"serve.qps", stats.qps},
  };
  if (session.slow_query_log() != nullptr) {
    gauges.push_back({"serve.slow_queries",
                      static_cast<double>(session.slow_query_log()->recorded())});
  }
  if (store != nullptr) {
    const snapshot::SnapshotChainStats chain = store->chain_stats();
    gauges.push_back({"snapshot.epoch", static_cast<double>(chain.newest_epoch)});
    gauges.push_back({"snapshot.refreeze_backlog",
                      static_cast<double>(store->delta_depth())});
    gauges.push_back({"snapshot.chain_length",
                      static_cast<double>(chain.chain_length)});
    gauges.push_back({"snapshot.retained_bytes",
                      static_cast<double>(chain.retained_bytes)});
  }
  return gauges;
}

}  // namespace egraph::serve
