// serve-updates: an open loop of seeded point queries over a SnapshotStore
// of the symmetrized twitter proxy, served by an isolated-mode
// QuerySession, while a fixed-rate mirrored update stream drives background
// refreezes. Every query is timed from the moment it was due to be sent.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench/src/workload_config.h"
#include "perfbench/src/workloads.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/io/loader.h"
#include "src/serve/checksum.h"
#include "src/serve/query_session.h"
#include "src/snapshot/snapshot_store.h"

namespace perfbench {
namespace {

using egraph::VertexId;
using egraph::serve::QueryKind;
using egraph::serve::QuerySession;
using egraph::serve::ServeQuery;
using egraph::serve::ServeResult;
using egraph::snapshot::EdgeUpdate;
using egraph::snapshot::Snapshot;
using egraph::snapshot::SnapshotStore;

struct UpdateBatch {
  uint64_t due_us = 0;
  std::vector<EdgeUpdate> updates;
};

struct Plan {
  std::vector<ServeQuery> queries;
  std::vector<uint64_t> query_due_us;
  std::vector<UpdateBatch> batches;
};

egraph::RunConfig QueryConfig(QueryKind kind) {
  egraph::RunConfig config;
  config.layout = egraph::Layout::kAdjacency;
  config.symmetric_input = true;
  if (kind == QueryKind::kPagerank) {
    config.direction = egraph::Direction::kPull;
    config.sync = egraph::Sync::kLockFree;
  }
  return config;
}

Plan ReadPlan(const std::string& dir) {
  Plan plan;
  std::ifstream queries(dir + "/queries.txt");
  if (!queries) {
    throw std::runtime_error("cannot read " + dir + "/queries.txt");
  }
  uint64_t due = 0;
  std::string kind_name;
  VertexId source = 0;
  int iterations = 0;
  while (queries >> due >> kind_name >> source >> iterations) {
    ServeQuery query;
    query.id = static_cast<int64_t>(plan.queries.size());
    if (!egraph::serve::ParseQueryKind(kind_name, &query.kind)) {
      throw std::runtime_error("unknown query kind " + kind_name);
    }
    query.source = source;
    query.iterations = iterations;
    query.config = QueryConfig(query.kind);
    plan.queries.push_back(query);
    plan.query_due_us.push_back(due);
  }
  std::ifstream updates(dir + "/updates.txt");
  if (!updates) {
    throw std::runtime_error("cannot read " + dir + "/updates.txt");
  }
  std::string op;
  VertexId src = 0;
  VertexId dst = 0;
  while (updates >> due >> op >> src >> dst) {
    if (plan.batches.empty() || plan.batches.back().due_us != due) {
      plan.batches.push_back({due, {}});
    }
    plan.batches.back().updates.push_back({src, dst, op == "add"});
  }
  if (plan.queries.empty()) {
    throw std::runtime_error("empty query schedule in " + dir);
  }
  return plan;
}

struct Served {
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<QuerySession> session;
  double setup_seconds = 0.0;
  double load_seconds = 0.0;
  double epoch0_bytes = 0.0;
  double epoch0_edges = 0.0;
};

Served SetUp(const RunOptions& options, SpanLog& spans) {
  ScopedSpan setup(spans, "bench.setup", "bench");
  Served served;
  egraph::EdgeList edges;
  {
    ScopedSpan load(spans, "io.load", "io");
    edges = egraph::LoadEdges(options.input_dir + "/graph.bin", egraph::kMediumMemory);
    served.load_seconds = load.Seconds();
  }
  {
    ScopedSpan build(spans, "snapshot.epoch0", "snapshot");
    egraph::snapshot::SnapshotOptions store_options;
    store_options.symmetric = true;
    store_options.background_refreeze = true;
    store_options.merge_threads = kMergeThreads;
    store_options.refreeze_threshold = kRefreezeThreshold;
    served.store = std::make_unique<SnapshotStore>(std::move(edges), store_options);
  }
  {
    ScopedSpan start(spans, "serve.start", "serve");
    egraph::serve::QuerySessionOptions session_options;
    session_options.concurrency = kServeWorkers;
    session_options.threads_per_query = 1;
    session_options.queue_capacity = 1 << 20;
    served.session = std::make_unique<QuerySession>(*served.store, session_options);
  }
  served.setup_seconds = setup.Seconds();
  const egraph::snapshot::SnapshotChainStats chain = served.store->chain_stats();
  served.epoch0_bytes = static_cast<double>(chain.retained_bytes);
  served.epoch0_edges = static_cast<double>(served.store->Pin().handle->num_edges());
  return served;
}

void SleepUntil(uint64_t ns) {
  const uint64_t now = NowNs();
  if (ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
  }
}

// Re-runs `query` sequentially on the epoch it was served from and returns
// the checksum the serve tier computes for it.
uint64_t Rerun(const ServeQuery& query, egraph::GraphHandle& handle,
               egraph::ExecutionContext& ctx, EngineLedger& ledger) {
  const uint64_t start = NowNs();
  switch (query.kind) {
    case QueryKind::kBfs: {
      const egraph::BfsResult run = egraph::RunBfs(handle, query.source, query.config, ctx);
      ledger.Record("bfs", SecondsBetween(start, NowNs()), run.stats);
      return egraph::serve::ChecksumBfs(run.parent);
    }
    case QueryKind::kSssp: {
      const egraph::SsspResult run = egraph::RunSssp(handle, query.source, query.config, ctx);
      ledger.Record("sssp", SecondsBetween(start, NowNs()), run.stats);
      return egraph::serve::ChecksumSssp(run.dist);
    }
    case QueryKind::kPagerank: {
      egraph::PagerankOptions options;
      options.iterations = query.iterations;
      const egraph::PagerankResult run = egraph::RunPagerank(handle, options, query.config, ctx);
      ledger.Record("pagerank", SecondsBetween(start, NowNs()), run.stats);
      return egraph::serve::ChecksumPagerank(run.rank);
    }
    case QueryKind::kWcc: {
      const egraph::WccResult run = egraph::RunWcc(handle, query.config, ctx);
      ledger.Record("wcc", SecondsBetween(start, NowNs()), run.stats);
      return egraph::serve::ChecksumWcc(run.label);
    }
  }
  return 0;
}

// What the poller saw of the store and the session while the stream ran.
struct PollLog {
  std::vector<std::pair<uint64_t, int64_t>> merged;  // (ns, updates_merged)
  int64_t max_queue_depth = 0;
  int64_t max_chain_length = 0;
  int64_t max_retained_bytes = 0;
};

}  // namespace

void RunServeUpdates(const RunOptions& options, SpanLog& spans, Report& report) {
  const Plan plan = ReadPlan(options.input_dir);

  std::vector<double> setup_seconds;
  std::vector<double> load_seconds;
  Served served;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (served.session) {
      served.session->Drain();
      served.session.reset();  // before the store it serves
      served.store.reset();
      malloc_trim(0);  // as in RunAnalytics: keeps peak_rss_mb independent of timing
    }
    served = SetUp(options, spans);
    setup_seconds.push_back(served.setup_seconds);
    load_seconds.push_back(served.load_seconds);
  }
  SnapshotStore& store = *served.store;
  QuerySession& session = *served.session;

  // Sampled queries for the sequential re-run: two runs of four consecutive
  // queries, a quarter and three quarters into the schedule. Each keeps the
  // epoch it pinned alive until the check.
  const size_t n = plan.queries.size();
  std::map<int64_t, Snapshot> sampled;
  auto is_sampled = [n](size_t i) {
    return (i >= n / 4 && i < n / 4 + 4) || (i >= 3 * n / 4 && i < 3 * n / 4 + 4);
  };

  std::vector<double> submit_us;
  std::vector<double> gen_lag_ms;
  std::vector<double> apply_us;
  std::vector<std::pair<uint64_t, int64_t>> applied;  // (ns, cumulative updates)
  PollLog poll;
  int64_t rejected = 0;
  std::vector<ServeResult> results;
  uint64_t start_ns = 0;
  {
    ScopedSpan measure(spans, "bench.measure", "bench");
    const int64_t root = CurrentSpan();
    start_ns = NowNs() + 1000000;  // first arrivals 1 ms from now

    std::thread updater([&] {
      int64_t cumulative = 0;
      for (const UpdateBatch& batch : plan.batches) {
        SleepUntil(start_ns + batch.due_us * 1000);
        const uint64_t begin = NowNs();
        store.Apply(batch.updates);
        const uint64_t end = NowNs();
        cumulative += static_cast<int64_t>(batch.updates.size());
        apply_us.push_back(SecondsBetween(begin, end) * 1e6);
        applied.push_back({begin, cumulative});
        spans.Add("snapshot.apply", "snapshot", begin, end, root);
      }
    });
    std::atomic<bool> stop_polling{false};
    std::thread poller([&] {
      egraph::snapshot::SnapshotStoreStats last;
      while (!stop_polling.load(std::memory_order_relaxed)) {
        const uint64_t now = NowNs();
        const egraph::snapshot::SnapshotStoreStats stats = store.stats();
        if (stats.updates_merged != last.updates_merged) {
          poll.merged.push_back({now, stats.updates_merged});
          // The merge ran just before its epoch was seen published.
          const double merge = stats.merge_seconds - last.merge_seconds;
          spans.Add("snapshot.merge", "snapshot", now - static_cast<uint64_t>(merge * 1e9), now,
                    root);
          last = stats;
        }
        const egraph::snapshot::SnapshotChainStats chain = store.chain_stats();
        poll.max_chain_length = std::max(poll.max_chain_length, chain.chain_length);
        poll.max_retained_bytes = std::max(poll.max_retained_bytes, chain.retained_bytes);
        poll.max_queue_depth = std::max(poll.max_queue_depth, session.stats().queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    for (size_t i = 0; i < n; ++i) {
      const uint64_t due = start_ns + plan.query_due_us[i] * 1000;
      SleepUntil(due);
      const uint64_t begin = NowNs();
      gen_lag_ms.push_back(SecondsBetween(due, begin) * 1e3);
      if (is_sampled(i)) {
        sampled[plan.queries[i].id] = store.Pin();
      }
      const egraph::serve::SubmitStatus status = session.Submit(plan.queries[i]);
      submit_us.push_back(SecondsBetween(begin, NowNs()) * 1e6);
      report.Attempt();
      if (status != egraph::serve::SubmitStatus::kAccepted) {
        ++rejected;
        report.Fail("query " + std::to_string(i) + " rejected at submit");
      }
    }
    updater.join();
    results = session.Drain();
    stop_polling.store(true, std::memory_order_relaxed);
    poller.join();
  }
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate

  // Spans of each served query, rebuilt from its RequestTrace stamps.
  for (const ServeResult& result : results) {
    const egraph::obs::RequestTrace& t = result.trace;
    const int64_t query_span =
        spans.Add("serve.query", "serve", t.submit_ns, t.done_ns, -1, result.id);
    spans.Add(std::string("engine.") + egraph::serve::QueryKindName(result.kind), "engine",
              t.exec_start_ns, t.done_ns, query_span, result.id);
  }

  // Checks: every accepted query came back complete, and the sampled ones
  // reproduce their checksum when re-run alone on the epoch they pinned.
  EngineLedger ledger;
  std::map<int64_t, bool> verified_ok;
  {
    ScopedSpan check(spans, "bench.check", "bench");
    if (static_cast<int64_t>(results.size()) + rejected != static_cast<int64_t>(n)) {
      report.Fail(std::to_string(n - results.size() - rejected) + " accepted queries missing");
    }
    for (const ServeResult& result : results) {
      if (!result.ok || !result.trace.Complete()) {
        report.Fail("query " + std::to_string(result.id) + " incomplete");
      }
    }
    egraph::ExecutionContextOptions context_options;
    context_options.name = "perfbench.verify";
    context_options.num_threads = 1;
    egraph::ExecutionContext ctx(context_options);
    for (const ServeResult& result : results) {
      const auto it = sampled.find(result.id);
      if (it == sampled.end() || it->second.epoch != result.epoch) {
        continue;  // not sampled, or a refreeze published between Pin and Submit
      }
      const ServeQuery& query = plan.queries[static_cast<size_t>(result.id)];
      const bool ok = Rerun(query, *it->second.handle, ctx, ledger) == result.checksum;
      verified_ok[result.id] = ok;
      if (!ok) {
        report.Fail("query " + std::to_string(result.id) + " checksum differs on re-run");
      }
    }
    if (verified_ok.empty()) {
      report.Fail("no sampled query could be re-run against its epoch");
    }
  }
  sampled.clear();

  // End-to-end metrics. Per-kind latency runs from due time to completion.
  std::map<QueryKind, std::vector<double>> latency_by_kind;
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> execute_ms;
  double execute_total = 0.0;
  int64_t good = 0;
  for (const ServeResult& result : results) {
    const uint64_t due = start_ns + plan.query_due_us[static_cast<size_t>(result.id)] * 1000;
    const double latency = SecondsBetween(due, result.trace.done_ns);
    latency_by_kind[result.kind].push_back(latency);
    latency_ms.push_back(latency * 1e3);
    queue_wait_ms.push_back(result.trace.QueueWaitSeconds() * 1e3);
    execute_ms.push_back(result.trace.ExecuteSeconds() * 1e3);
    execute_total += result.trace.ExecuteSeconds();
    const auto verified = verified_ok.find(result.id);
    const bool correct = result.ok && (verified == verified_ok.end() || verified->second);
    good += correct && latency <= kServeLatencyLimitSeconds ? 1 : 0;
  }
  const double setup = Median(setup_seconds);
  report.Set("setup_s", setup, "s");
  report.Set("algo_s", execute_total, "s");
  report.Set("e2e_s", setup + execute_total, "s");
  report.Set("pagerank_s", Median(latency_by_kind[QueryKind::kPagerank]), "s");
  report.Set("peak_rss_mb", peak_rss_mb, "MiB");

  const double window = static_cast<double>(plan.query_due_us.back()) * 1e-6;
  report.Set("serve.latency_ms.p50", Quantile(latency_ms, 0.50), "ms");
  report.Set("serve.latency_ms.p95", Quantile(latency_ms, 0.95), "ms");
  report.Set("serve.goodput_qps", window > 0 ? static_cast<double>(good) / window : 0.0, "1/s");
  report.Set("serve.submit_us.p50", Quantile(submit_us, 0.50), "us");
  report.Set("serve.queue_wait_ms.p50", Quantile(queue_wait_ms, 0.50), "ms");
  report.Set("serve.queue_wait_ms.p95", Quantile(queue_wait_ms, 0.95), "ms");
  report.Set("serve.execute_ms.p50", Quantile(execute_ms, 0.50), "ms");
  report.Set("serve.execute_ms.p95", Quantile(execute_ms, 0.95), "ms");
  report.Set("serve.queue_depth.max", static_cast<double>(poll.max_queue_depth), "count");
  report.Set("serve.gen_lag_ms.max", Quantile(gen_lag_ms, 1.0), "ms");

  // Update lag: from each Apply to the first poll whose updates_merged
  // covers it (applies still buffered when the stream ended are skipped).
  std::vector<double> lag_ms;
  size_t cursor = 0;
  for (const auto& [applied_ns, cumulative] : applied) {
    while (cursor < poll.merged.size() && poll.merged[cursor].second < cumulative) {
      ++cursor;
    }
    if (cursor == poll.merged.size()) {
      break;
    }
    lag_ms.push_back(SecondsBetween(applied_ns, poll.merged[cursor].first) * 1e3);
  }
  const egraph::snapshot::SnapshotStoreStats stats = store.stats();
  report.Set("snapshot.update_lag_ms.p50", Quantile(lag_ms, 0.50), "ms");
  report.Set("snapshot.apply_us.p50", Quantile(apply_us, 0.50), "us");
  report.Set("snapshot.merge_s",
             stats.epochs_published > 0
                 ? stats.merge_seconds / static_cast<double>(stats.epochs_published)
                 : 0.0,
             "s");
  report.Set("snapshot.epochs", static_cast<double>(stats.epochs_published), "count");
  report.Set("snapshot.chain_length.max", static_cast<double>(poll.max_chain_length), "count");
  report.Set("snapshot.retained_mb.max",
             static_cast<double>(poll.max_retained_bytes) / 1048576.0, "MiB");

  const double load = Median(load_seconds);
  const double file_bytes = served.epoch0_edges * sizeof(egraph::Edge);
  report.Set("io.load_s", load, "s");
  report.Set("io.load_gbps", load > 0 ? file_bytes / load / 1e9 : 0.0, "GB/s");
  report.Set("layout.bytes_per_edge",
             served.epoch0_edges > 0 ? served.epoch0_bytes / served.epoch0_edges : 0.0,
             "count");
  ledger.Fill(report);

  served.session.reset();
  served.store.reset();
  if (spans.enabled()) {
    ProbeLayouts(egraph::LoadEdges(options.input_dir + "/graph.bin", egraph::kMediumMemory),
                 spans, report);
  }
}

}  // namespace perfbench
