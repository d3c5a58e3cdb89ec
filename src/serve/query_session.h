// QuerySession: a bounded multi-query executor over one frozen GraphHandle —
// the serving-side counterpart of the paper's one-algorithm-at-a-time
// benchmarks. N worker threads each own a private ExecutionContext (pool,
// scratch), pull queries from a bounded queue, and run the requested
// algorithm against the shared snapshot. Because the handle is frozen and
// every per-query mutable state lives in the worker's context, queries are
// data-race free by construction; because each context owns a private
// pool, they scale with concurrency instead of serializing on the
// process-wide pool's region lock. Each query's engine trace counts only
// its own rounds, however many run at once (ServeResult::iterations is its
// round count), and lands in the process-wide TraceSink.
//
// Admission control is explicit: Submit() rejects — with a distinct status
// for "queue full" vs "session draining" — so a producer that outruns the
// workers sees backpressure instead of unbounded memory growth.
//
// Sessions can serve a mutating graph: constructed over a
// snapshot::SnapshotStore instead of a single handle, Submit() pins the
// store's current epoch and the query runs against that pinned snapshot no
// matter how many refreezes publish while it waits in the queue — snapshot
// isolation per query.
#ifndef SRC_SERVE_QUERY_SESSION_H_
#define SRC_SERVE_QUERY_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/algos/common.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/obs/exposition.h"
#include "src/obs/request_trace.h"
#include "src/snapshot/snapshot_store.h"
#include "src/util/timer.h"

namespace egraph::serve {

enum class QueryKind {
  kBfs = 0,
  kSssp = 1,
  kPagerank = 2,
  kWcc = 3,
};

const char* QueryKindName(QueryKind kind);

// Parses "bfs" / "sssp" / "pagerank" / "wcc"; returns false on anything else.
bool ParseQueryKind(const std::string& name, QueryKind* kind);

struct ServeQuery {
  int64_t id = 0;  // caller-assigned; results report it back
  QueryKind kind = QueryKind::kBfs;
  VertexId source = 0;   // bfs / sssp start vertex (ignored otherwise)
  int iterations = 10;   // pagerank iteration count (ignored otherwise)
  RunConfig config;      // layout / direction / sync for the run
};

struct ServeResult {
  int64_t id = 0;
  QueryKind kind = QueryKind::kBfs;
  bool ok = false;
  int worker = -1;         // session worker that executed the query
  double seconds = 0.0;    // wall time of the Run* call
  int iterations = 0;      // rounds the algorithm took
  // Order-independent fingerprint of the query's output (reached set for
  // BFS, quantized distances for SSSP, component labels for WCC, quantized
  // rank mass for PageRank). Equal inputs on equal graphs produce equal
  // checksums for the deterministic algorithms (BFS reachability, SSSP,
  // WCC); PageRank under push/atomics may differ in final float ulps, so
  // its checksum quantizes coarsely.
  uint64_t checksum = 0;
  // Epoch the query executed against (0 for plain-handle sessions; for
  // snapshot-store sessions, the epoch pinned at Submit time).
  uint64_t epoch = 0;
  // Lifecycle trace: where this query's latency went (submit -> admission ->
  // queue wait -> dispatch -> execution), plus the epoch pin. Always
  // populated; trace.Complete() holds for every result a Drain returns.
  obs::RequestTrace trace;
};

// Why Submit() bounced a query — "try again later" (kQueueFull) and "never
// again" (kClosed) need different producer reactions, so they are distinct.
enum class SubmitStatus {
  kAccepted = 0,
  kQueueFull = 1,  // admission control: the bounded queue is at capacity
  kClosed = 2,     // Drain() already began; the session takes no more work
};

struct QuerySessionOptions {
  // Worker threads, each owning an ExecutionContext. At least 1.
  int concurrency = 1;
  // Threads of each worker's private pool; at least 1 (smaller values are
  // raised to 1). 1 keeps a query on its worker's thread (intra-query
  // parallelism off — the throughput configuration); larger values trade
  // per-query latency for throughput.
  int threads_per_query = 1;
  // Submit() rejects once this many queries are waiting.
  size_t queue_capacity = 1024;
  // > 0: completed queries whose total latency (submit to completion)
  // reaches this many seconds are retained in the session's SlowQueryLog
  // with their full phase breakdown. 0 disables the log.
  double slow_query_seconds = 0.0;
};

struct QuerySessionStats {
  int64_t submitted = 0;        // accepted by Submit
  int64_t rejected = 0;         // total bounces (rejected_full + rejected_closed)
  int64_t rejected_full = 0;    // bounced by admission control (queue at capacity)
  int64_t rejected_closed = 0;  // bounced because the session was draining
  int64_t completed = 0;
  int64_t queue_depth = 0;  // queries waiting for a worker right now
  int64_t in_flight = 0;    // queries dequeued but not yet completed
  double wall_seconds = 0.0;  // construction until now (post-drain: until
                              // the drain completed)
  double qps = 0.0;           // completed / wall_seconds
};

// Read a query file: one query per line, `<algo> [source]` (source defaults
// to 0; '#' starts a comment). Every query inherits `base_config`. Throws
// std::runtime_error on unreadable files or unknown algorithms.
std::vector<ServeQuery> ReadQueryFile(const std::string& path,
                                      const RunConfig& base_config);

class QuerySession {
 public:
  // Freezes `handle` (if the caller has not already) and starts the
  // workers. The handle must outlive the session; layouts the queries need
  // are built on first use, once, under the handle's call_once guards.
  QuerySession(GraphHandle& handle, QuerySessionOptions options);

  // Serves `store`'s epochs: every Submit pins the then-current snapshot
  // and the query executes against it even if refreezes publish newer
  // epochs meanwhile. The store must outlive the session.
  QuerySession(snapshot::SnapshotStore& store, QuerySessionOptions options);

  // Drains and joins if the caller did not.
  ~QuerySession();

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  // Enqueues a query. Never blocks: returns kQueueFull when the queue is at
  // capacity and kClosed once Drain() has begun — kClosed wins when both
  // apply, so producers racing a drain never see a retryable status from a
  // session that will take no more work.
  SubmitStatus Submit(const ServeQuery& query);

  // Closes admission, waits for every accepted query to finish, joins the
  // workers, and returns all results ordered by query id. Idempotent and
  // safe to call from any number of threads concurrently: exactly one
  // caller performs the drain, the rest block until it finishes and return
  // the same results.
  std::vector<ServeResult> Drain();

  // A consistent point-in-time snapshot of the session's counters and
  // gauges. Safe to call from any thread at any moment — including while
  // workers are mid-query — and after Drain(), when it reports the final
  // tallies. (It returns by value precisely so concurrent workers never
  // mutate a struct a reader is looking at.)
  QuerySessionStats stats() const;

  // The slow-query log, or nullptr when options.slow_query_seconds == 0.
  const obs::SlowQueryLog* slow_query_log() const { return slow_log_.get(); }

 private:
  // A queued query plus the snapshot it pinned at Submit time (an empty
  // handle for plain-handle sessions, which run against *handle_) and the
  // lifecycle trace started when Submit stamped it.
  struct Pending {
    ServeQuery query;
    snapshot::Snapshot snap;
    obs::RequestTrace trace;
  };

  void StartWorkers();
  void WorkerLoop(int worker_index);
  // Resolves which graph `pending` runs against.
  GraphHandle& ResolveHandle(const Pending& pending) {
    return pending.snap.handle ? *pending.snap.handle : *handle_;
  }
  ServeResult Execute(GraphHandle& handle, const Pending& pending,
                      ExecutionContext& ctx, int worker_index);
  // Completion bookkeeping: feeds the per-kind latency histograms and
  // offers the result to the slow-query log.
  void RecordCompletion(const ServeResult& result);

  GraphHandle* handle_ = nullptr;             // plain-handle sessions
  snapshot::SnapshotStore* store_ = nullptr;  // snapshot-store sessions
  const QuerySessionOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;

  std::vector<std::thread> workers_;
  std::vector<std::vector<ServeResult>> worker_results_;  // one slot per worker

  Timer wall_timer_;
  // Counters are atomic so stats() can snapshot them from any thread while
  // workers run (the old `const&`-to-plain-ints accessor was a data race).
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_full_{0};
  std::atomic<int64_t> rejected_closed_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> in_flight_{0};
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  bool draining_ = false;        // guarded by mutex_: a Drain is in flight
  bool drained_ = false;         // guarded by mutex_
  double final_wall_seconds_ = 0.0;  // guarded by mutex_; set when drained_
  std::condition_variable drained_cv_;  // signals drained_
  std::vector<ServeResult> results_;
};

// The serving layer's gauge provider for obs::StatsSampler / exposition:
// the session's live queue/in-flight/throughput gauges plus, when `store`
// is non-null, the snapshot-store epoch gauges (current epoch, delta depth
// a.k.a. refreeze backlog, live chain length, retained bytes).
std::vector<obs::GaugeSample> ServeGauges(const QuerySession& session,
                                          const snapshot::SnapshotStore* store);

}  // namespace egraph::serve

#endif  // SRC_SERVE_QUERY_SESSION_H_
