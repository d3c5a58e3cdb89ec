// Concurrent-execution correctness: the ExecutionContext / frozen-
// GraphHandle contract under real concurrency. These tests run under the
// `concurrent` ctest label and in the TSan CI job — they are the evidence
// that N contexts can share one frozen handle with no data races and no
// result divergence.
//
//   1. Differential: >= 4 threads, each with a private ExecutionContext,
//      run BFS / SSSP / WCC / PageRank simultaneously against one frozen
//      handle; every concurrent result must match the serial reference
//      computed beforehand with the default context.
//   2. Prepare hammer: 8 threads race PrepareForRun on a frozen handle;
//      the layout must be built exactly once (identical CSR to a serial
//      build, build cost far below 8 independent builds).
//   3. QuerySession admission control and drain semantics.
//   4. Traces: each run's EngineTrace counts only its own rounds' edges
//      while another context runs a larger graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/gen/rmat.h"
#include "src/obs/request_trace.h"
#include "src/serve/query_session.h"
#include "src/util/thread_pool.h"
#include "tests/hand_computed_bfs.h"

namespace egraph {
namespace {

EdgeList TestGraph() {
  RmatOptions options;
  options.scale = 12;
  options.edge_factor = 8;
  options.seed = 99;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 1.0f, 7);
  // Undirected so the WCC adjacency path is legal; BFS/SSSP/PageRank are
  // agnostic to symmetry.
  return graph.MakeUndirected();
}

RunConfig PushConfig() {
  RunConfig config;
  config.layout = Layout::kAdjacency;
  config.direction = Direction::kPush;
  config.sync = Sync::kAtomics;
  return config;
}

std::vector<bool> ReachedSet(const std::vector<VertexId>& parent) {
  std::vector<bool> reached(parent.size());
  for (size_t v = 0; v < parent.size(); ++v) {
    reached[v] = parent[v] != kInvalidVertex;
  }
  return reached;
}

// Four algorithm kinds x two threads each = 8 simultaneous runs, all
// against one frozen handle, each from its own context with a private
// pool. Every result must equal the serial reference: BFS by reached set
// (parent choice is schedule-dependent, reachability is not), SSSP and WCC
// exactly (their fixpoints are schedule-independent), PageRank to float
// accumulation tolerance.
TEST(ConcurrentTest, FourAlgorithmsShareOneFrozenHandle) {
  EdgeList graph = TestGraph();
  const VertexId n = graph.num_vertices();
  GraphHandle handle(std::move(graph));
  const RunConfig config = PushConfig();
  const VertexId source = 1;

  // Serial references through the default context, before freezing.
  const BfsResult ref_bfs = RunBfs(handle, source, config);
  const SsspResult ref_sssp = RunSssp(handle, source, config);
  const WccResult ref_wcc = RunWcc(handle, config);
  PagerankOptions pr_options;
  pr_options.iterations = 8;
  const PagerankResult ref_pr = RunPagerank(handle, pr_options, config);
  const std::vector<bool> ref_reached = ReachedSet(ref_bfs.parent);

  handle.Freeze();
  ASSERT_TRUE(handle.frozen());

  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecutionContextOptions ctx_options;
      ctx_options.name = "concurrent.t" + std::to_string(t);
      ctx_options.num_threads = 2;  // private pool: real intra-run parallelism
      ExecutionContext ctx(ctx_options);
      switch (t % 4) {
        case 0: {
          const BfsResult run = RunBfs(handle, source, config, ctx);
          if (ReachedSet(run.parent) != ref_reached) {
            failures[t] = "bfs reached set diverged";
          }
          break;
        }
        case 1: {
          const SsspResult run = RunSssp(handle, source, config, ctx);
          for (VertexId v = 0; v < n; ++v) {
            const bool ref_finite = std::isfinite(ref_sssp.dist[v]);
            if (ref_finite != std::isfinite(run.dist[v]) ||
                (ref_finite &&
                 std::abs(run.dist[v] - ref_sssp.dist[v]) > 1e-4f)) {
              failures[t] = "sssp distances diverged";
              break;
            }
          }
          break;
        }
        case 2: {
          const WccResult run = RunWcc(handle, config, ctx);
          if (run.label != ref_wcc.label) {
            failures[t] = "wcc labels diverged";
          }
          break;
        }
        case 3: {
          const PagerankResult run = RunPagerank(handle, pr_options, config, ctx);
          for (VertexId v = 0; v < n; ++v) {
            if (std::abs(run.rank[v] - ref_pr.rank[v]) > 1e-4f) {
              failures[t] = "pagerank ranks diverged";
              break;
            }
          }
          break;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
}

// Eight threads race PrepareForRun against a frozen handle with no layouts
// built. The per-layout call_once must admit exactly one builder: the CSR
// equals a serial build bit for bit, and the accounted pre-processing cost
// is far below what eight independent builds would have accumulated.
TEST(ConcurrentTest, PrepareHammerBuildsLayoutOnce) {
  EdgeList graph = TestGraph();
  const RunConfig config = PushConfig();

  GraphHandle serial(graph);
  PrepareForRun(serial, config);
  const double serial_seconds = serial.preprocess_seconds();

  GraphHandle hammered(std::move(graph));
  hammered.Freeze();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] { PrepareForRun(hammered, config); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  ASSERT_TRUE(hammered.has_out_csr());
  EXPECT_EQ(hammered.out_csr().offsets(), serial.out_csr().offsets());
  EXPECT_EQ(hammered.out_csr().neighbors(), serial.out_csr().neighbors());
  // One build's cost, not eight: generous 3x + scheduling cushion, far
  // under the 8x an unguarded race would account.
  EXPECT_LT(hammered.preprocess_seconds(), 3.0 * serial_seconds + 0.25);
}

// Freeze() must exclude an in-flight build-phase Prepare(): before the
// shared/exclusive guard, a freeze landing mid-build returned immediately
// and the mutation finished on a handle already observed frozen. Now the
// freeze blocks until the build completes — observable as the build's cost
// being accounted by the time Freeze() returns. (If the freeze wins the
// lock race instead, the build legally runs post-freeze and the clock may
// still read zero; the 2 ms head start makes that interleaving rare, so at
// least one round must observe the waited case.) Under TSan this is also
// the regression test that the freeze/build overlap is race-free.
TEST(ConcurrentTest, FreezeWaitsForInFlightBuild) {
  RmatOptions big;
  big.scale = 16;  // large enough that the radix build far outlasts the 2 ms
  big.edge_factor = 8;
  big.seed = 5;
  const EdgeList graph = GenerateRmat(big);
  const RunConfig config = PushConfig();

  bool observed_completed_build = false;
  for (int round = 0; round < 6 && !observed_completed_build; ++round) {
    GraphHandle handle(graph);
    std::atomic<bool> started{false};
    std::thread builder([&] {
      started.store(true, std::memory_order_release);
      PrepareForRun(handle, config);
    });
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    handle.Freeze();
    observed_completed_build = handle.preprocess_seconds() > 0.0;
    builder.join();
    EXPECT_TRUE(handle.frozen());
    EXPECT_TRUE(handle.has_out_csr());
  }
  EXPECT_TRUE(observed_completed_build)
      << "Freeze() returned without waiting for the in-flight Prepare() in "
         "every round";
}

// Freezing makes mutation illegal but Prepare (idempotent) legal.
TEST(ConcurrentTest, FrozenHandleAllowsIdempotentPrepare) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);
  handle.Freeze();
  PrepareForRun(handle, config);  // no-op, no abort
  EXPECT_TRUE(handle.has_out_csr());
  EXPECT_TRUE(handle.frozen());
}

TEST(ConcurrentTest, QuerySessionRunsMixedQueries) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);

  serve::QuerySessionOptions options;
  options.concurrency = 4;
  options.threads_per_query = 1;
  serve::QuerySession session(handle, options);
  EXPECT_TRUE(handle.frozen()) << "session must freeze the handle";

  std::vector<serve::ServeQuery> queries;
  for (int i = 0; i < 12; ++i) {
    serve::ServeQuery query;
    query.id = i;
    query.kind = i % 2 == 0 ? serve::QueryKind::kBfs : serve::QueryKind::kSssp;
    query.source = static_cast<VertexId>(i);
    query.config = config;
    EXPECT_EQ(session.Submit(query), serve::SubmitStatus::kAccepted);
    queries.push_back(query);
  }
  const std::vector<serve::ServeResult> results = session.Drain();
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, static_cast<int64_t>(i)) << "sorted by id";
    EXPECT_TRUE(results[i].ok);
  }
  EXPECT_EQ(session.stats().completed, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(session.stats().rejected, 0);
  EXPECT_GT(session.stats().qps, 0.0);

  // Identical queries at different concurrency must reproduce checksums.
  serve::QuerySessionOptions serial_options;
  serial_options.concurrency = 1;
  serve::QuerySession serial_session(handle, serial_options);
  for (const serve::ServeQuery& query : queries) {
    EXPECT_EQ(serial_session.Submit(query), serve::SubmitStatus::kAccepted);
  }
  const std::vector<serve::ServeResult> serial_results = serial_session.Drain();
  ASSERT_EQ(serial_results.size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].checksum, serial_results[i].checksum) << "query " << i;
  }
}

// threads_per_query <= 0 is raised to 1: each worker still gets a private
// one-thread pool instead of running its queries on the process-wide pool,
// where concurrent workers would serialize on the region lock and every
// query would silently run EG_THREADS wide. Results must match the serial
// session's, and the process-wide pool must run none of the session's work.
TEST(ConcurrentTest, ZeroThreadsPerQueryKeepsPrivatePools) {
  GraphHandle handle(TestGraph());
  RunConfig config = PushConfig();
  config.symmetric_input = true;
  RunConfig pull = config;
  pull.direction = Direction::kPull;
  PrepareForRun(handle, config);
  PrepareForRun(handle, pull);

  std::vector<serve::ServeQuery> queries;
  for (int i = 0; i < 16; ++i) {
    serve::ServeQuery query;
    query.id = i;
    query.kind = static_cast<serve::QueryKind>(i % 4);
    query.source = static_cast<VertexId>(i * 37);
    query.iterations = 5;
    query.config = query.kind == serve::QueryKind::kPagerank ? pull : config;
    queries.push_back(query);
  }
  auto run = [&](int concurrency, int threads_per_query) {
    serve::QuerySessionOptions options;
    options.concurrency = concurrency;
    options.threads_per_query = threads_per_query;
    serve::QuerySession session(handle, options);
    for (const serve::ServeQuery& query : queries) {
      EXPECT_EQ(session.Submit(query), serve::SubmitStatus::kAccepted);
    }
    return session.Drain();
  };
  const std::vector<serve::ServeResult> serial = run(1, 1);
  const uint64_t process_steals = ThreadPool::Get().steal_count();
  const std::vector<serve::ServeResult> results = run(4, 0);
  EXPECT_EQ(ThreadPool::Get().steal_count(), process_steals)
      << "queries ran on the process-wide pool";
  ASSERT_EQ(results.size(), serial.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok) << "query " << i;
    EXPECT_EQ(results[i].checksum, serial[i].checksum)
        << "query " << i << " (" << serve::QueryKindName(results[i].kind) << ")";
  }
}

// Every drained result carries a complete lifecycle trace whose phase
// breakdown (admission + queue wait + dispatch + execute) sums to the total
// exactly — the stamps are consecutive right-open intervals, so nothing can
// leak between phases.
TEST(ConcurrentTest, RequestTraceBreakdownIsConsistent) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);

  serve::QuerySessionOptions options;
  options.concurrency = 4;
  options.threads_per_query = 1;
  serve::QuerySession session(handle, options);
  for (int i = 0; i < 12; ++i) {
    serve::ServeQuery query;
    query.id = i;
    query.kind = i % 2 == 0 ? serve::QueryKind::kBfs : serve::QueryKind::kSssp;
    query.source = static_cast<VertexId>(i);
    query.config = config;
    ASSERT_EQ(session.Submit(query), serve::SubmitStatus::kAccepted);
  }
  const std::vector<serve::ServeResult> results = session.Drain();
  ASSERT_EQ(results.size(), 12u);
  for (const serve::ServeResult& result : results) {
    const obs::RequestTrace& trace = result.trace;
    EXPECT_TRUE(trace.Complete()) << "query " << result.id;
    EXPECT_GE(trace.AdmissionSeconds(), 0.0);
    EXPECT_GE(trace.QueueWaitSeconds(), 0.0);
    EXPECT_GE(trace.DispatchSeconds(), 0.0);
    EXPECT_GT(trace.ExecuteSeconds(), 0.0) << "query " << result.id;
    const double phase_sum = trace.AdmissionSeconds() + trace.QueueWaitSeconds() +
                             trace.DispatchSeconds() + trace.ExecuteSeconds();
    const double total = trace.TotalSeconds();
    EXPECT_GT(total, 0.0) << "query " << result.id;
    // Exact by construction; 5% is the acceptance bound, 1e-9 the slack for
    // the double conversions.
    EXPECT_NEAR(phase_sum, total, total * 0.05 + 1e-9) << "query " << result.id;
    // The execute phase wraps the result's own timer, so it can only be a
    // hair longer than result.seconds, never shorter.
    EXPECT_GE(trace.ExecuteSeconds(), result.seconds) << "query " << result.id;
    EXPECT_GE(total, result.seconds) << "query " << result.id;
    // Plain-handle session: no epoch pin.
    EXPECT_EQ(trace.epoch, 0u);
  }
}

// stats() and ServeGauges() are read concurrently with the serving workers
// (this is exactly what the StatsSampler thread does): 4 workers + 2
// submitting producers + 2 pollers = 8+ threads hammering the counters,
// the queue mutex, and the slow-query log at once. TSan runs this under
// the `serve` label; the assertions pin the final counts.
TEST(ConcurrentTest, StatsPollingDuringServeIsRaceFree) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);

  serve::QuerySessionOptions options;
  options.concurrency = 4;
  options.threads_per_query = 1;
  options.slow_query_seconds = 1e-9;  // everything qualifies: hammer the log
  serve::QuerySession session(handle, options);

  constexpr int kProducers = 2;
  constexpr int kQueriesPerProducer = 8;
  std::atomic<bool> stop_polling{false};
  std::atomic<int64_t> accepted{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kQueriesPerProducer; ++i) {
        serve::ServeQuery query;
        query.id = p * kQueriesPerProducer + i;
        query.kind = i % 2 == 0 ? serve::QueryKind::kBfs : serve::QueryKind::kSssp;
        query.source = static_cast<VertexId>(query.id);
        query.config = config;
        if (session.Submit(query) == serve::SubmitStatus::kAccepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> pollers;
  for (int t = 0; t < 2; ++t) {
    pollers.emplace_back([&] {
      while (!stop_polling.load(std::memory_order_acquire)) {
        const serve::QuerySessionStats stats = session.stats();
        EXPECT_GE(stats.submitted, 0);
        EXPECT_GE(stats.queue_depth, 0);
        EXPECT_GE(stats.in_flight, 0);
        EXPECT_LE(stats.completed, stats.submitted);
        for (const obs::GaugeSample& sample : serve::ServeGauges(session, nullptr)) {
          EXPECT_FALSE(sample.name.empty());
        }
        std::this_thread::yield();
      }
    });
  }

  for (std::thread& producer : producers) {
    producer.join();
  }
  const std::vector<serve::ServeResult> results = session.Drain();
  stop_polling.store(true, std::memory_order_release);
  for (std::thread& poller : pollers) {
    poller.join();
  }

  EXPECT_EQ(static_cast<int64_t>(results.size()), accepted.load());
  const serve::QuerySessionStats final_stats = session.stats();
  EXPECT_EQ(final_stats.completed, accepted.load());
  EXPECT_EQ(final_stats.queue_depth, 0);
  EXPECT_EQ(final_stats.in_flight, 0);
  ASSERT_NE(session.slow_query_log(), nullptr);
  // Every completed query crossed the 1ns threshold.
  EXPECT_EQ(session.slow_query_log()->recorded(), accepted.load());
  for (const obs::SlowQueryRecord& record : session.slow_query_log()->Snapshot()) {
    EXPECT_TRUE(record.trace.Complete()) << "slow query " << record.id;
    EXPECT_FALSE(obs::FormatSlowQuery(record).empty());
  }
}

TEST(ConcurrentTest, QuerySessionAdmissionControl) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);

  // Zero capacity: every submission bounces, nothing executes.
  serve::QuerySessionOptions options;
  options.concurrency = 2;
  options.queue_capacity = 0;
  serve::QuerySession session(handle, options);
  serve::ServeQuery query;
  query.config = config;
  // A full queue and a closed session are distinct rejection reasons: callers
  // retry the former and give up on the latter.
  EXPECT_EQ(session.Submit(query), serve::SubmitStatus::kQueueFull);
  EXPECT_EQ(session.Submit(query), serve::SubmitStatus::kQueueFull);
  const std::vector<serve::ServeResult> results = session.Drain();
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(session.stats().rejected, 2);
  EXPECT_EQ(session.stats().rejected_full, 2);
  EXPECT_EQ(session.stats().rejected_closed, 0);
  EXPECT_EQ(session.stats().submitted, 0);

  // Submitting after Drain is rejected as closed, not queued forever — and
  // not confused with back-pressure.
  EXPECT_EQ(session.Submit(query), serve::SubmitStatus::kClosed);
  EXPECT_EQ(session.stats().rejected_closed, 1);
  EXPECT_EQ(session.stats().rejected, 3);
}

// Drain() from two threads at once: exactly one performs the drain, the
// other blocks until it finishes (no double-join, no abort) and both see
// the same results — as does any later call.
TEST(ConcurrentTest, DrainIsIdempotentAndConcurrent) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);

  serve::QuerySessionOptions options;
  options.concurrency = 2;
  serve::QuerySession session(handle, options);
  for (int i = 0; i < 8; ++i) {
    serve::ServeQuery query;
    query.id = i;
    query.kind = serve::QueryKind::kBfs;
    query.source = static_cast<VertexId>(i);
    query.config = config;
    ASSERT_EQ(session.Submit(query), serve::SubmitStatus::kAccepted);
  }

  std::vector<serve::ServeResult> first;
  std::vector<serve::ServeResult> second;
  std::thread a([&] { first = session.Drain(); });
  std::thread b([&] { second = session.Drain(); });
  a.join();
  b.join();
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].checksum, second[i].checksum);
  }
  const std::vector<serve::ServeResult> third = session.Drain();
  ASSERT_EQ(third.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(third[i].checksum, first[i].checksum);
  }
  EXPECT_EQ(session.stats().completed, 8);
}

// Once a drain has begun, Submit must report kClosed — never kQueueFull —
// even while the bounded queue is also at capacity: a producer racing the
// shutdown must not be told to retry against a session that will never
// take its query. The producer hammers a capacity-1 queue while the main
// thread drains; in the recorded status sequence no kQueueFull may appear
// after the first kClosed.
TEST(ConcurrentTest, SubmitAfterDrainBeginsReportsClosedNeverQueueFull) {
  GraphHandle handle(TestGraph());
  const RunConfig config = PushConfig();
  PrepareForRun(handle, config);

  serve::QuerySessionOptions options;
  options.concurrency = 1;
  options.queue_capacity = 1;
  serve::QuerySession session(handle, options);

  std::vector<serve::SubmitStatus> statuses;
  std::thread producer([&] {
    serve::ServeQuery query;
    query.kind = serve::QueryKind::kBfs;
    query.source = 1;
    query.config = config;
    int closed_seen = 0;
    for (int i = 0; i < 2'000'000 && closed_seen < 100; ++i) {
      query.id = i;
      const serve::SubmitStatus status = session.Submit(query);
      statuses.push_back(status);
      if (status == serve::SubmitStatus::kClosed) {
        ++closed_seen;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  session.Drain();
  producer.join();

  bool saw_closed = false;
  bool saw_full = false;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i] == serve::SubmitStatus::kClosed) {
      saw_closed = true;
    } else if (statuses[i] == serve::SubmitStatus::kQueueFull) {
      saw_full = true;
      EXPECT_FALSE(saw_closed)
          << "kQueueFull at status " << i << " AFTER a kClosed: a closed "
             "session told a producer to retry";
      if (saw_closed) {
        break;
      }
    }
  }
  EXPECT_TRUE(saw_closed) << "drain raced past the producer without closing";
  // With a capacity-1 queue and one slow worker the producer must have hit
  // genuine back-pressure before the drain; otherwise the test ran in an
  // interleaving that proved nothing about the full+closed combination.
  EXPECT_TRUE(saw_full);

  // Deterministic coda: with the session fully drained the queue is empty,
  // yet Submit still reports kClosed — closed wins over any queue state.
  serve::ServeQuery late;
  late.config = config;
  EXPECT_EQ(session.Submit(late), serve::SubmitStatus::kClosed);
}

// The thread-local Scope binding redirects nested parallel loops without
// touching the process-wide pool on other threads; whichever context runs
// it, a trace lands in the one process ring.
TEST(ConcurrentTest, ScopeBindsPoolAndSinkPerThread) {
  ExecutionContextOptions options;
  options.name = "scope-test";
  options.num_threads = 2;
  ExecutionContext ctx(options);
  {
    ExecutionContext::Scope scope(ctx);
    EXPECT_EQ(&ThreadPool::Current(), &ctx.pool());
  }
  EXPECT_EQ(&ThreadPool::Current(), &ThreadPool::Get());

  GraphHandle handle(TestGraph());
  const int64_t recorded_before = obs::TraceSink::Get().recorded();
  const BfsResult result = RunBfs(handle, 1, PushConfig(), ctx);
  EXPECT_EQ(obs::TraceSink::Get().recorded(), recorded_before + 1);
  const std::vector<obs::EngineTrace> sunk = obs::TraceSink::Get().Snapshot();
  ASSERT_FALSE(sunk.empty());
  EXPECT_EQ(sunk.back().algorithm, "bfs");
  EXPECT_EQ(sunk.back().iterations.size(), result.stats.trace.iterations.size());
}

// Whether `trace` holds exactly the hand-computed push BFS rounds.
bool IsHandComputedBfs(const obs::EngineTrace& trace) {
  if (trace.iterations.size() != static_cast<size_t>(kHandBfsRounds)) {
    return false;
  }
  for (int i = 0; i < kHandBfsRounds; ++i) {
    const obs::IterationRecord& round = trace.iterations[static_cast<size_t>(i)];
    if (round.frontier_size != kHandBfsFrontier[i] || round.edges_scanned != kHandBfsScanned[i] ||
        round.edges_relaxed != kHandBfsRelaxed[i]) {
      return false;
    }
  }
  return true;
}

// Each run's trace counts only its own work. One context runs push BFS on
// the hand-computed graph over and over while another runs pull PageRank on
// an R-MAT graph, on two threads: every BFS trace must hold the
// hand-computed rounds and edges, and every PageRank round must have
// scanned exactly the graph's m edges, however the two runs interleave.
TEST(ConcurrentTest, TracesCountOnlyTheirOwnRun) {
  constexpr int kBfsRuns = 1000;
  GraphHandle small(HandComputedGraph());
  PrepareForRun(small, PushConfig());
  small.Freeze();
  RmatOptions rmat;
  rmat.scale = 14;
  rmat.edge_factor = 16;
  rmat.seed = 5;
  GraphHandle large(GenerateRmat(rmat));
  RunConfig pull;
  pull.layout = Layout::kAdjacency;
  pull.direction = Direction::kPull;
  pull.sync = Sync::kLockFree;
  PrepareForRun(large, pull);
  large.Freeze();
  const int64_t m = static_cast<int64_t>(large.in_csr().num_edges());

  ExecutionContextOptions options;
  options.num_threads = std::max(1, ThreadPool::Get().num_threads() / 2);
  options.name = "trace-bfs";
  ExecutionContext bfs_ctx(options);
  options.name = "trace-pagerank";
  ExecutionContext pagerank_ctx(options);

  std::atomic<bool> pagerank_started{false};
  std::atomic<bool> bfs_done{false};
  int64_t pagerank_rounds = 0;
  int64_t pagerank_wrong = 0;
  std::thread pagerank_thread([&] {
    PagerankOptions pr;
    pr.iterations = 2;
    pagerank_started.store(true);
    do {
      const PagerankResult result = RunPagerank(large, pr, pull, pagerank_ctx);
      for (const obs::IterationRecord& round : result.stats.trace.iterations) {
        ++pagerank_rounds;
        pagerank_wrong += round.edges_scanned == m ? 0 : 1;
      }
    } while (!bfs_done.load());
  });
  int64_t bfs_wrong = 0;
  std::thread bfs_thread([&] {
    while (!pagerank_started.load()) {
      std::this_thread::yield();
    }
    for (int run = 0; run < kBfsRuns; ++run) {
      const BfsResult result = RunBfs(small, /*source=*/0, PushConfig(), bfs_ctx);
      bfs_wrong += IsHandComputedBfs(result.stats.trace) ? 0 : 1;
    }
    bfs_done.store(true);
  });
  bfs_thread.join();
  pagerank_thread.join();

  EXPECT_EQ(bfs_wrong, 0) << "of " << kBfsRuns << " BFS runs";
  EXPECT_GT(pagerank_rounds, 0);
  EXPECT_EQ(pagerank_wrong, 0) << "of " << pagerank_rounds << " PageRank rounds";
}

}  // namespace
}  // namespace egraph
