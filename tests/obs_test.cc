// Observability subsystem: registry semantics (exact totals under
// concurrent adds, reset), histogram bucketing and percentiles, JSON
// writer/parser round-trips, phase-timer scoping (every Run* counts in the
// algorithm phase), the report writers' error reporting, and the
// per-iteration EngineTrace checked against a hand-computed BFS on a
// 10-vertex graph.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/algos/als.h"
#include "src/algos/analytics.h"
#include "src/algos/betweenness.h"
#include "src/algos/bfs.h"
#include "src/algos/kcore.h"
#include "src/algos/pagerank.h"
#include "src/algos/spmv.h"
#include "src/algos/sssp.h"
#include "src/algos/triangles.h"
#include "src/algos/wcc.h"
#include "src/engine/execution_context.h"
#include "src/gen/bipartite.h"
#include "src/gen/rmat.h"
#include "src/obs/export.h"
#include "src/obs/exposition.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/request_trace.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"
#include "tests/hand_computed_bfs.h"

namespace egraph::obs {
namespace {

// Burns ~0.1ms of wall time so phase accumulators get a measurable span.
void SpinBriefly() {
  Timer timer;
  volatile double sink = 0.0;
  while (timer.Seconds() < 1e-4) {
    sink = sink + 1.0;
  }
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Globals persist across tests in the same process: start clean.
    Registry::Get().ResetAll();
    PhaseTimers::Get().Reset();
    TraceSink::Get().Clear();
  }
};

// --- Counter / registry ----------------------------------------------------

TEST_F(ObsTest, CounterAggregatesAcrossWorkerShards) {
  Counter& counter = Registry::Get().GetCounter("test.sharded");
  Histogram& hist = Registry::Get().GetHistogram("test.sharded.hist");
  counter.Reset();
  hist.Reset();
  // Each chunk adds from whatever worker runs it; the total must still be
  // exactly the number of iterations.
  ParallelForChunks(0, 100000, /*grain=*/64,
                    [&](int64_t lo, int64_t hi, int /*worker*/) { counter.Add(hi - lo); });
  EXPECT_EQ(counter.Total(), 100000);
  counter.Reset();
  EXPECT_EQ(counter.Total(), 0);

  // The same counter and histogram take adds at the same time from the
  // process pool, two plain threads and two contexts' private 2-thread
  // pools; none of the adds may be lost.
  constexpr int64_t kItems = 20000;
  auto add_items = [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      counter.Add(1);
      hist.Record(i % 1000);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] { add_items(0, kItems); });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ExecutionContextOptions options;
      options.name = "obs.ctx" + std::to_string(t);
      options.num_threads = 2;
      ExecutionContext context(options);
      context.pool().ParallelForChunks(
          0, kItems, /*grain=*/64,
          [&](int64_t lo, int64_t hi, int /*worker*/) { add_items(lo, hi); });
    });
  }
  ParallelForChunks(0, kItems, /*grain=*/64,
                    [&](int64_t lo, int64_t hi, int /*worker*/) { add_items(lo, hi); });
  for (std::thread& thread : threads) {
    thread.join();
  }
  constexpr int64_t kSources = 5;
  constexpr int64_t kSumPerSource = (kItems / 1000) * (999 * 1000 / 2);
  EXPECT_EQ(counter.Total(), kSources * kItems);
  EXPECT_EQ(hist.Count(), kSources * kItems);
  EXPECT_EQ(hist.Sum(), kSources * kSumPerSource);
}

TEST_F(ObsTest, RegistryReturnsSameInstanceForSameName) {
  Counter& a = Registry::Get().GetCounter("test.same");
  Counter& b = Registry::Get().GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = Registry::Get().GetHistogram("test.same.hist");
  Histogram& h2 = Registry::Get().GetHistogram("test.same.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST_F(ObsTest, ResetAllZeroesEverythingButKeepsNames) {
  Registry::Get().GetCounter("test.reset").Add(3);
  Registry::Get().GetHistogram("test.reset.hist").Record(42);
  Registry::Get().ResetAll();
  EXPECT_EQ(Registry::Get().GetCounter("test.reset").Total(), 0);
  EXPECT_EQ(Registry::Get().GetHistogram("test.reset.hist").Count(), 0);
  bool found = false;
  for (const CounterSnapshot& c : Registry::Get().SnapshotCounters()) {
    found |= c.name == "test.reset";
  }
  EXPECT_TRUE(found) << "reset must not unregister names";
}

// --- Histogram -------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketBoundsContainTheirSamples) {
  for (int64_t sample : {0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, 1025}) {
    const int bucket = Histogram::BucketOf(sample);
    EXPECT_LE(sample, Histogram::BucketUpperBound(bucket)) << "sample " << sample;
    if (bucket > 0) {
      EXPECT_GT(sample, Histogram::BucketUpperBound(bucket - 1)) << "sample " << sample;
    }
  }
}

TEST_F(ObsTest, HistogramPercentilesResolveToBucketUpperBounds) {
  Histogram& hist = Registry::Get().GetHistogram("test.percentiles");
  hist.Reset();
  for (int64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.Count(), 100);
  EXPECT_EQ(hist.Sum(), 5050);
  EXPECT_DOUBLE_EQ(hist.Mean(), 50.5);
  // Rank 50 lands in bucket (32, 64]; ranks 90 and 99 in bucket (64, 128].
  EXPECT_EQ(hist.Percentile(0.50), 64);
  EXPECT_EQ(hist.Percentile(0.90), 128);
  EXPECT_EQ(hist.Percentile(0.99), 128);
  // Extremes clamp instead of under/overflowing the rank.
  EXPECT_EQ(hist.Percentile(0.0), 1);
  EXPECT_EQ(hist.Percentile(1.0), 128);
}

// --- Phase timers ----------------------------------------------------------

TEST_F(ObsTest, NestedScopedPhasesCountOnlyTheOutermost) {
  {
    ScopedPhase outer(Phase::kPreprocess);
    SpinBriefly();
    {
      ScopedPhase inner(Phase::kPreprocess);  // nested: must not double-count
      SpinBriefly();
    }
  }
  const double once = PhaseTimers::Get().Seconds(Phase::kPreprocess);
  EXPECT_GT(once, 0.0);

  PhaseTimers::Get().Reset();
  {
    ScopedPhase outer(Phase::kPreprocess);
    { ScopedPhase inner(Phase::kPreprocess); }
    { ScopedPhase inner(Phase::kPreprocess); }
  }
  // Re-entering twice under one outer scope still counts one wall-time span:
  // strictly less than two disjoint outer scopes would produce.
  const TimingBreakdown breakdown = PhaseTimers::Get().ToBreakdown();
  EXPECT_GT(breakdown.preprocess_seconds, 0.0);
  EXPECT_EQ(breakdown.load_seconds, 0.0);
  EXPECT_EQ(breakdown.algorithm_seconds, 0.0);
}

// Every Run* counts in the algorithm phase: its TraceSession holds the
// phase open, so the accumulator strictly grows across each call, the
// single-round SpMV and triangle count and the diameter sweep included.
TEST_F(ObsTest, EveryRunGrowsTheAlgorithmPhase) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8;
  rmat.seed = 5;
  const EdgeList graph = GenerateRmat(rmat);
  GraphHandle handle(graph);
  const RunConfig config;
  BipartiteOptions ratings;
  ratings.num_users = 60;
  ratings.num_items = 20;
  ratings.avg_ratings_per_user = 5;
  const BipartiteGraph bipartite = GenerateBipartite(ratings);
  GraphHandle rated(bipartite.edges);
  AlsOptions als;
  als.iterations = 2;
  const std::vector<float> x(handle.num_vertices(), 1.0f);
  const std::vector<VertexId> sources = {0, 1};

  const auto expect_grows = [](const char* what, const auto& run) {
    const double before = PhaseTimers::Get().Seconds(Phase::kAlgorithm);
    run();
    EXPECT_GT(PhaseTimers::Get().Seconds(Phase::kAlgorithm), before) << what;
  };
  expect_grows("bfs", [&] { RunBfs(handle, 0, config); });
  expect_grows("sssp", [&] { RunSssp(handle, 0, config); });
  expect_grows("wcc", [&] { RunWcc(handle, config); });
  expect_grows("kcore", [&] { RunKcore(handle, config); });
  expect_grows("pagerank", [&] { RunPagerank(handle, PagerankOptions{}, config); });
  expect_grows("betweenness", [&] { RunBetweenness(handle, sources, config); });
  expect_grows("spmv", [&] { RunSpmv(handle, x, config); });
  expect_grows("triangles", [&] { RunTriangleCount(handle, config); });
  expect_grows("als", [&] { RunAls(rated, bipartite.num_users, als, config); });
  expect_grows("diameter", [&] { EstimateDiameter(graph); });
}

// --- JSON ------------------------------------------------------------------

TEST_F(ObsTest, JsonDumpParseRoundTripPreservesStructure) {
  JsonValue doc = JsonValue::Object();
  doc.Set("string", "hello \"world\"\n\ttab");
  doc.Set("int", 42);
  doc.Set("big", static_cast<int64_t>(1) << 40);
  doc.Set("fraction", 0.125);
  doc.Set("flag", true);
  doc.Set("nothing", JsonValue());
  JsonValue list = JsonValue::Array();
  list.Append(1);
  list.Append("two");
  list.Append(JsonValue::Object());
  doc.Set("list", std::move(list));

  for (int indent : {-1, 2}) {
    const JsonValue parsed = JsonValue::Parse(doc.Dump(indent));
    EXPECT_EQ(parsed, doc) << "indent " << indent;
  }
  // Duplicate keys overwrite.
  JsonValue dup = JsonValue::Parse(R"({"k": 1, "k": 2})");
  ASSERT_NE(dup.Find("k"), nullptr);
  EXPECT_EQ(dup.Find("k")->number(), 2.0);
}

TEST_F(ObsTest, JsonParserRejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
                          "{\"a\":1} trailing", "[1 2]"}) {
    EXPECT_THROW(JsonValue::Parse(bad), std::runtime_error) << bad;
  }
}

// --- EngineTrace against a hand-computed BFS -------------------------------

// The rounds come back from the EdgeMap calls themselves, not from the
// registry.
TEST_F(ObsTest, EngineTraceMatchesHandComputedBfs) {
  // Push over adjacency lists scans the frontier's out-edges and keeps
  // sparse frontiers. The edge array and the grid, under column ownership
  // and under shared updates, scan every stored edge each round and hand
  // back dense frontiers after round 0; all four relax the same edges.
  struct Case {
    Layout layout;
    Sync sync;
  };
  for (const Case c : {Case{Layout::kAdjacency, Sync::kAtomics},
                       Case{Layout::kEdgeArray, Sync::kAtomics},
                       Case{Layout::kGrid, Sync::kLockFree}, Case{Layout::kGrid, Sync::kAtomics}}) {
    SCOPED_TRACE(std::string(LayoutName(c.layout)) + " " + SyncName(c.sync));
    TraceSink::Get().Clear();
    GraphHandle handle(HandComputedGraph());
    RunConfig config;
    config.layout = c.layout;
    config.direction = Direction::kPush;
    config.sync = c.sync;
    const BfsResult result = RunBfs(handle, /*source=*/0, config);
    const bool stored_edges = c.layout != Layout::kAdjacency;

    const EngineTrace& trace = result.stats.trace;
    EXPECT_EQ(trace.algorithm, "bfs");
    EXPECT_EQ(trace.layout, c.layout);
    EXPECT_EQ(trace.direction, Direction::kPush);
    EXPECT_EQ(trace.sync, c.sync);
    ASSERT_EQ(trace.iterations.size(), 5u);
    ASSERT_EQ(static_cast<size_t>(result.stats.rounds()), trace.iterations.size());

    for (size_t i = 0; i < 5; ++i) {
      const IterationRecord& record = trace.iterations[i];
      EXPECT_EQ(record.iteration, static_cast<int>(i));
      EXPECT_EQ(record.frontier_size, kHandBfsFrontier[i]) << "iteration " << i;
      EXPECT_EQ(record.frontier_sparse, !stored_edges || i == 0) << "iteration " << i;
      EXPECT_EQ(record.edges_scanned, stored_edges ? kHandGraphEdges : kHandBfsScanned[i])
          << "iteration " << i;
      EXPECT_EQ(record.edges_relaxed, kHandBfsRelaxed[i]) << "iteration " << i;
      EXPECT_EQ(record.direction, Direction::kPush);
      EXPECT_GE(record.seconds, 0.0);
    }
    EXPECT_GT(trace.total_seconds, 0.0);

    // The completed trace was also deposited in the sink for process export.
    const std::vector<EngineTrace> sunk = TraceSink::Get().Snapshot();
    ASSERT_EQ(sunk.size(), 1u);
    EXPECT_EQ(sunk[0].algorithm, "bfs");
    ASSERT_EQ(sunk[0].iterations.size(), 5u);
  }
}

TEST_F(ObsTest, TraceSinkDropsOldestBeyondCapacity) {
  EngineTrace trace;
  for (int i = 0; i < TraceSink::kMaxTraces + 10; ++i) {
    trace.algorithm = "t" + std::to_string(i);
    TraceSink::Get().Record(trace);
  }
  const std::vector<EngineTrace> sunk = TraceSink::Get().Snapshot();
  ASSERT_EQ(sunk.size(), static_cast<size_t>(TraceSink::kMaxTraces));
  EXPECT_EQ(sunk.front().algorithm, "t10");  // the 10 oldest were dropped
  EXPECT_EQ(sunk.back().algorithm, "t" + std::to_string(TraceSink::kMaxTraces + 9));
}

TEST_F(ObsTest, TraceSinkRingAccountingAndReset) {
  // A small sink: the ring keeps the newest `capacity` traces and counts
  // what it overwrote.
  TraceSink sink(/*capacity=*/3);
  EXPECT_EQ(sink.capacity(), 3u);
  EXPECT_EQ(sink.recorded(), 0);
  EXPECT_EQ(sink.dropped(), 0);

  EngineTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.algorithm = "t" + std::to_string(i);
    sink.Record(trace);
  }
  EXPECT_EQ(sink.recorded(), 5);
  EXPECT_EQ(sink.dropped(), 2);  // t0 and t1 overwritten
  std::vector<EngineTrace> sunk = sink.Snapshot();
  ASSERT_EQ(sunk.size(), 3u);
  EXPECT_EQ(sunk[0].algorithm, "t2");
  EXPECT_EQ(sunk[2].algorithm, "t4");

  // Clear drops the retained traces but keeps the lifetime accounting.
  sink.Clear();
  EXPECT_TRUE(sink.Snapshot().empty());
  EXPECT_EQ(sink.recorded(), 5);
  EXPECT_EQ(sink.dropped(), 2);
  trace.algorithm = "after-clear";
  sink.Record(trace);
  EXPECT_EQ(sink.recorded(), 6);
  ASSERT_EQ(sink.Snapshot().size(), 1u);
  EXPECT_EQ(sink.Snapshot()[0].algorithm, "after-clear");

  // Reset zeroes everything: retained traces and both counters.
  sink.Reset();
  EXPECT_TRUE(sink.Snapshot().empty());
  EXPECT_EQ(sink.recorded(), 0);
  EXPECT_EQ(sink.dropped(), 0);
}

// --- Exporters -------------------------------------------------------------

TEST_F(ObsTest, ProcessReportRoundTripsThroughTheParser) {
  GraphHandle handle(HandComputedGraph());
  RunConfig config;
  config.layout = Layout::kAdjacency;
  config.direction = Direction::kPush;
  config.sync = Sync::kAtomics;
  const BfsResult result = RunBfs(handle, 0, config);
  (void)result;

  const JsonValue report = ProcessReportToJson("obs_test");
  const JsonValue parsed = JsonValue::Parse(report.Dump(2));
  EXPECT_EQ(parsed, report);
  EXPECT_EQ(parsed.Find("name")->string_value(), "obs_test");
  EXPECT_EQ(parsed.Find("schema")->string_value(), "egraph-trace-v1");

  // The paper's four phases are always present, by name.
  const JsonValue* phases = parsed.Find("phases");
  ASSERT_NE(phases, nullptr);
  for (const char* key : {"load", "preprocess", "partition", "algorithm", "total"}) {
    ASSERT_NE(phases->Find(key), nullptr) << key;
  }

  // The BFS run above must appear with per-iteration records.
  const JsonValue* traces = parsed.Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->items().size(), 1u);
  const JsonValue& t = traces->items()[0];
  EXPECT_EQ(t.Find("algorithm")->string_value(), "bfs");
  EXPECT_EQ(t.Find("layout")->string_value(), "adjacency");
  ASSERT_EQ(t.Find("iterations")->items().size(), 5u);
  const JsonValue& it0 = t.Find("iterations")->items()[0];
  EXPECT_EQ(it0.Find("frontier_size")->number(), 1.0);
  EXPECT_EQ(it0.Find("edges_scanned")->number(), 2.0);

  // Engine counters surfaced under their registered names.
  const JsonValue* counters = parsed.Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("engine.edgemap_calls"), nullptr);
  EXPECT_EQ(counters->Find("engine.edgemap_calls")->number(), 5.0);
}

TEST_F(ObsTest, MetricsTableListsPhasesCountersAndHistograms) {
  Registry::Get().GetCounter("test.table.counter").Add(3);
  Registry::Get().GetHistogram("test.table.hist").Record(7);
  const std::string table = MetricsTableString();
  EXPECT_NE(table.find("phase breakdown"), std::string::npos);
  EXPECT_NE(table.find("load"), std::string::npos);
  EXPECT_NE(table.find("test.table.counter"), std::string::npos);
  EXPECT_NE(table.find("test.table.hist"), std::string::npos);
}

// --- Report files ----------------------------------------------------------

// On /dev/full a small report fits in stdio's buffer, so its write error
// shows only when the file is closed; every writer must report it.
TEST_F(ObsTest, ReportWritersFailOnFullDevice) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  EXPECT_FALSE(WriteProcessReport(full, "obs_test"));
  EXPECT_FALSE(WriteTimelineTrace(full));
  const std::vector<GaugeSample> gauges = {{"test.full.gauge", 1.0}};
  EXPECT_FALSE(WriteExposition(full, "", gauges));
  EXPECT_FALSE(WriteExposition("", full, gauges));
}

// --- Request traces / slow-query log ---------------------------------------

RequestTrace MakeTrace(uint64_t submit_ns, uint64_t admission_ns, uint64_t queue_ns,
                       uint64_t dispatch_ns, uint64_t execute_ns) {
  RequestTrace trace;
  trace.submit_ns = submit_ns;
  trace.admit_ns = trace.submit_ns + admission_ns;
  trace.dequeue_ns = trace.admit_ns + queue_ns;
  trace.exec_start_ns = trace.dequeue_ns + dispatch_ns;
  trace.done_ns = trace.exec_start_ns + execute_ns;
  return trace;
}

TEST_F(ObsTest, RequestTracePhaseBreakdownSumsExactly) {
  const RequestTrace trace =
      MakeTrace(1'000'000'000ull, 200, 600, 100, 4'000);
  EXPECT_TRUE(trace.Complete());
  EXPECT_DOUBLE_EQ(trace.AdmissionSeconds(), 200e-9);
  EXPECT_DOUBLE_EQ(trace.QueueWaitSeconds(), 600e-9);
  EXPECT_DOUBLE_EQ(trace.DispatchSeconds(), 100e-9);
  EXPECT_DOUBLE_EQ(trace.ExecuteSeconds(), 4'000e-9);
  EXPECT_DOUBLE_EQ(trace.AdmissionSeconds() + trace.QueueWaitSeconds() +
                       trace.DispatchSeconds() + trace.ExecuteSeconds(),
                   trace.TotalSeconds());

  // Unset stamps collapse their phase to zero instead of going negative,
  // and an incomplete trace says so.
  RequestTrace partial;
  partial.submit_ns = 100;
  EXPECT_FALSE(partial.Complete());
  EXPECT_DOUBLE_EQ(partial.QueueWaitSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(partial.TotalSeconds(), 0.0);
  RequestTrace never_submitted;
  EXPECT_FALSE(never_submitted.Complete());
}

TEST_F(ObsTest, SlowQueryLogThresholdAndRingAccounting) {
  SlowQueryLog log(/*threshold_seconds=*/0.010, /*capacity=*/3);
  EXPECT_DOUBLE_EQ(log.threshold_seconds(), 0.010);

  SlowQueryRecord fast;
  fast.id = 0;
  fast.trace = MakeTrace(1'000, 0, 0, 0, 5'000'000);  // 5ms < 10ms
  EXPECT_FALSE(log.MaybeRecord(fast));
  EXPECT_EQ(log.recorded(), 0);

  for (int64_t id = 1; id <= 5; ++id) {
    SlowQueryRecord slow;
    slow.id = id;
    slow.kind = "bfs";
    slow.trace = MakeTrace(1'000, 0, 0, 0, 20'000'000);  // 20ms
    EXPECT_TRUE(log.MaybeRecord(slow));
  }
  EXPECT_EQ(log.recorded(), 5);
  EXPECT_EQ(log.dropped(), 2);  // ids 1 and 2 overwritten by 4 and 5
  const std::vector<SlowQueryRecord> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].id, 3);  // oldest retained ...
  EXPECT_EQ(snapshot[2].id, 5);  // ... to newest
}

TEST_F(ObsTest, FormatSlowQueryReportsBreakdown) {
  SlowQueryRecord record;
  record.id = 42;
  record.kind = "bfs";
  record.worker = 3;
  record.trace = MakeTrace(1'000'000'000ull, 2'000'000, 3'000'000,
                           1'000'000, 4'000'000);  // 10ms total
  record.trace.epoch = 2;
  record.trace.delta_depth_at_pin = 17;
  const std::string line = FormatSlowQuery(record);
  for (const char* piece : {"slow query 42", "bfs", "total 10.000ms",
                            "admission 2.000ms", "queue 3.000ms", "dispatch 1.000ms",
                            "execute 4.000ms", "worker 3", "epoch 2", "delta-depth 17)"}) {
    EXPECT_NE(line.find(piece), std::string::npos)
        << "missing \"" << piece << "\" in: " << line;
  }

  // A kind longer than the line buffer truncates the line instead of
  // reading past the buffer (ASan checks the read).
  record.kind = std::string(400, 'k');
  const std::string truncated = FormatSlowQuery(record);
  EXPECT_LT(truncated.size(), 400u);
  EXPECT_EQ(truncated.rfind("slow query 42: kkk", 0), 0u);
}

// --- Exposition ------------------------------------------------------------

TEST_F(ObsTest, PrometheusMetricNameSanitizesAndPrefixes) {
  EXPECT_EQ(PrometheusMetricName("serve.bfs.total_us"), "egraph_serve_bfs_total_us");
  EXPECT_EQ(PrometheusMetricName("a-b/c d"), "egraph_a_b_c_d");
  EXPECT_EQ(PrometheusMetricName("snapshot.epoch"), "egraph_snapshot_epoch");
}

TEST_F(ObsTest, ExpositionTextEmitsWellFormedFamilies) {
  Registry::Get().GetCounter("test.expo.counter").Add(3);
  Histogram& hist = Registry::Get().GetHistogram("test.expo.hist");
  for (int64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  const std::vector<GaugeSample> gauges = {{"test.expo.gauge", 2.5}};
  const std::string text = ExpositionText(gauges);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "exposition must end with a newline";
  for (const char* piece :
       {"# TYPE egraph_test_expo_counter counter", "egraph_test_expo_counter 3",
        "# TYPE egraph_test_expo_hist summary",
        "egraph_test_expo_hist{quantile=\"0.5\"} 64",
        "egraph_test_expo_hist{quantile=\"0.95\"} 128",
        "egraph_test_expo_hist{quantile=\"0.99\"} 128",
        "egraph_test_expo_hist_sum 5050", "egraph_test_expo_hist_count 100",
        "# TYPE egraph_test_expo_gauge gauge", "egraph_test_expo_gauge 2.5"}) {
    EXPECT_NE(text.find(piece), std::string::npos)
        << "missing \"" << piece << "\"";
  }
}

TEST_F(ObsTest, ExpositionJsonRoundTripsAndCarriesPercentiles) {
  Histogram& hist = Registry::Get().GetHistogram("test.expo.json.hist");
  for (int64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  const JsonValue doc = ExpositionJson({{"test.expo.json.gauge", 1.0}});
  const JsonValue parsed = JsonValue::Parse(doc.Dump(2));
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(parsed.Find("schema")->string_value(), "egraph-stats-v1");

  const JsonValue* h = parsed.Find("histograms")->Find("test.expo.json.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->number(), 100.0);
  EXPECT_EQ(h->Find("sum")->number(), 5050.0);
  EXPECT_EQ(h->Find("p50")->number(), 64.0);
  EXPECT_EQ(h->Find("p95")->number(), 128.0);
  EXPECT_EQ(h->Find("p99")->number(), 128.0);
  const JsonValue* gauge = parsed.Find("gauges")->Find("test.expo.json.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->number(), 1.0);
}

TEST_F(ObsTest, HistogramSnapshotIncludesP95) {
  Histogram& hist = Registry::Get().GetHistogram("test.p95.hist");
  for (int64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  bool found = false;
  for (const HistogramSnapshot& s : Registry::Get().SnapshotHistograms()) {
    if (s.name == "test.p95.hist") {
      found = true;
      EXPECT_EQ(s.p50, 64);
      EXPECT_EQ(s.p95, 128);
      EXPECT_EQ(s.p99, 128);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, ObsSelfGaugesReportRingAccounting) {
  bool saw_recorded = false;
  bool saw_dropped = false;
  bool saw_timeline = false;
  for (const GaugeSample& sample : ObsSelfGauges()) {
    EXPECT_GE(sample.value, 0.0) << sample.name;
    saw_recorded |= sample.name == "obs.trace_sink.recorded";
    saw_dropped |= sample.name == "obs.trace_sink.dropped";
    saw_timeline |= sample.name == "obs.timeline.dropped_events";
  }
  EXPECT_TRUE(saw_recorded);
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_timeline);
}

TEST_F(ObsTest, StatsSamplerWritesBothExpositionFiles) {
  const std::string path = ::testing::TempDir() + "obs_test_stats.prom";
  const std::string json_path = path + ".json";
  std::remove(path.c_str());
  std::remove(json_path.c_str());
  {
    StatsSampler::Options options;
    options.path = path;
    options.interval_ms = 1;
    options.gauges = [] {
      return std::vector<GaugeSample>{{"test.sampler.gauge", 4.0}};
    };
    StatsSampler sampler(options);
    EXPECT_TRUE(sampler.SampleNow());
    sampler.Stop();  // final sample + join; idempotent
    sampler.Stop();
    EXPECT_GE(sampler.samples(), 2);
  }
  std::ifstream prom(path);
  ASSERT_TRUE(prom.good()) << path;
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("egraph_test_sampler_gauge 4"), std::string::npos);

  std::ifstream json(json_path);
  ASSERT_TRUE(json.good()) << json_path;
  std::stringstream json_text;
  json_text << json.rdbuf();
  const JsonValue parsed = JsonValue::Parse(json_text.str());
  EXPECT_EQ(parsed.Find("schema")->string_value(), "egraph-stats-v1");
  ASSERT_NE(parsed.Find("gauges")->Find("test.sampler.gauge"), nullptr);
  std::remove(path.c_str());
  std::remove(json_path.c_str());
}

TEST_F(ObsTest, ProcessReportSurfacesDropAccounting) {
  // Satellite: ring-drop accounting must ride along in exported summaries,
  // not vanish silently when buffers overflow.
  const JsonValue report = ProcessReportToJson("drops");
  const JsonValue* sink = report.Find("trace_sink");
  ASSERT_NE(sink, nullptr);
  for (const char* key : {"recorded", "dropped", "capacity"}) {
    ASSERT_NE(sink->Find(key), nullptr) << key;
    EXPECT_GE(sink->Find(key)->number(), 0.0) << key;
  }
  const JsonValue* timeline_dropped = report.Find("timeline_dropped_events");
  ASSERT_NE(timeline_dropped, nullptr);
  EXPECT_GE(timeline_dropped->number(), 0.0);
}

}  // namespace
}  // namespace egraph::obs
