// Tests for the per-worker timeline layer (src/obs/timeline.h): emission
// semantics (nesting, ordering, bounded-buffer drops), concurrency (emission
// from pool workers racing Snapshot — exercised under TSan via the obs
// label), and the Chrome-trace exporter round-tripped through the in-tree
// JSON parser, which is how the repo validates Perfetto compatibility.
//
// The timeline is process-global state; every test begins by claiming it
// (enable + Reset) and ends disabled so tests compose in one binary.
#include "src/obs/timeline.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/algos/pagerank.h"
#include "src/engine/graph_handle.h"
#include "src/gen/rmat.h"
#include "src/obs/json.h"
#include "src/util/parallel.h"
#include "src/util/thread_pool.h"

namespace egraph::obs {
namespace {

// Fresh enabled timeline with the default capacity; disabled on scope exit
// so a failing test cannot leak tracing into the next one.
class TimelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Timeline::SetCapacityPerThread(timeline_internal::kDefaultEventsPerThread);
    Timeline::Reset();
    Timeline::SetEnabled(true);
  }

  void TearDown() override {
    Timeline::SetEnabled(false);
  }

  // Events of the calling thread's track, in emission order. The thread's
  // buffer is located by emitting a sentinel and finding which track ends
  // with it (buffers have no public thread identity beyond the tid).
  static std::vector<TimelineEvent> MyEvents() {
    TimelineInstant("test", "sentinel");
    for (const auto& snapshot : Timeline::Snapshot()) {
      if (!snapshot.events.empty() &&
          std::string(snapshot.events.back().name) == "sentinel") {
        std::vector<TimelineEvent> events = snapshot.events;
        events.pop_back();
        return events;
      }
    }
    return {};
  }
};

TEST_F(TimelineFixture, NestedSpansCloseInnerFirstAndNestByTime) {
  {
    TimelineSpan outer("test", "outer", 1);
    {
      TimelineSpan inner("test", "inner", 2);
    }
  }
  const std::vector<TimelineEvent> events = MyEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans are emitted at destruction: inner closes (and lands) first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].arg, 2);
  EXPECT_EQ(events[1].arg, 1);
  // The outer interval contains the inner one.
  const TimelineEvent& inner = events[0];
  const TimelineEvent& outer = events[1];
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
}

TEST_F(TimelineFixture, SequentialSpansAreOrderedAndInstantsInterleave) {
  { TimelineSpan a("test", "a"); }
  TimelineInstant("test", "mark", 7);
  { TimelineSpan b("test", "b"); }
  const std::vector<TimelineEvent> events = MyEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "mark");
  EXPECT_STREQ(events[2].name, "b");
  EXPECT_EQ(events[0].kind, TimelineEventKind::kSpan);
  EXPECT_EQ(events[1].kind, TimelineEventKind::kInstant);
  EXPECT_EQ(events[1].dur_ns, 0u);
  // Start times never run backwards within a track.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[1].start_ns, events[2].start_ns);
}

TEST_F(TimelineFixture, FullBufferDropsNewestAndCountsWithoutReallocating) {
  constexpr size_t kCapacity = 16;
  Timeline::SetCapacityPerThread(kCapacity);
  Timeline::Reset();

  for (int i = 0; i < 100; ++i) {
    TimelineSpan span("test", "spin", i);
  }

  TimelineInstant("test", "sentinel");  // also dropped: buffer already full
  bool found = false;
  for (const auto& snapshot : Timeline::Snapshot()) {
    if (snapshot.events.size() == kCapacity && snapshot.dropped > 0) {
      // Exactly the first kCapacity events survive, in order, and the
      // buffer never grew past its capacity.
      EXPECT_EQ(snapshot.capacity, kCapacity);
      EXPECT_EQ(snapshot.dropped, 100u - kCapacity + 1u);  // + the sentinel
      for (size_t i = 0; i < snapshot.events.size(); ++i) {
        EXPECT_EQ(snapshot.events[i].arg, static_cast<int64_t>(i));
      }
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no buffer observed the overflow";
  EXPECT_GT(Timeline::TotalDropped(), 0u);

  // Reset clears both the events and the drop counter.
  Timeline::Reset();
  EXPECT_EQ(Timeline::TotalDropped(), 0u);
}

TEST_F(TimelineFixture, DisabledEmissionIsANoOp) {
  Timeline::SetEnabled(false);
  { TimelineSpan span("test", "off"); }
  TimelineInstant("test", "off");
  EXPECT_EQ(TimelineNow(), 0u);
  for (const auto& snapshot : Timeline::Snapshot()) {
    for (const TimelineEvent& event : snapshot.events) {
      EXPECT_STRNE(event.name, "off");
    }
  }
}

TEST_F(TimelineFixture, ManualSpanPairMatchesRaiiSemantics) {
  const uint64_t start = TimelineNow();
  ASSERT_NE(start, 0u);
  TimelineEndSpan("test", "manual", start, 42);
  const std::vector<TimelineEvent> events = MyEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "manual");
  EXPECT_EQ(events[0].arg, 42);
  EXPECT_EQ(events[0].start_ns, start);
}

// Pool workers emit concurrently into their own buffers while the main
// thread snapshots mid-flight. Run under TSan via the obs ctest label; the
// assertions here check only invariants that hold at any interleaving.
TEST_F(TimelineFixture, ConcurrentEmissionAndSnapshotAreSafe) {
  for (int round = 0; round < 8; ++round) {
    ParallelFor(0, 2048, [](int64_t i) {
      TimelineSpan span("test", "work", i);
    });
    const auto snapshots = Timeline::Snapshot();  // races the next round's tail
    for (const auto& snapshot : snapshots) {
      // Spans land in the buffer when they CLOSE, so end times (not start
      // times) are monotonic per track: an enclosing pool "run" span is
      // emitted after its inner "test" spans yet started before them.
      uint64_t last_end = 0;
      for (const TimelineEvent& event : snapshot.events) {
        ASSERT_NE(event.name, nullptr);
        const uint64_t end = event.start_ns + event.dur_ns;
        EXPECT_GE(end, last_end);
        last_end = end;
      }
    }
  }
}

TEST_F(TimelineFixture, ChromeExportRoundTripsThroughJsonParser) {
  { TimelineSpan span("test", "exported", 3); }
  TimelineInstant("test", "point");

  const JsonValue exported = TimelineToChromeJson();
  const JsonValue parsed = JsonValue::Parse(exported.Dump(1));
  ASSERT_EQ(parsed, exported) << "export does not round-trip";

  const JsonValue* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type(), JsonValue::Type::kArray);
  ASSERT_FALSE(events->items().empty());

  bool saw_span = false, saw_instant = false, saw_metadata = false;
  for (const JsonValue& event : events->items()) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string& kind = ph->string_value();
    ASSERT_TRUE(kind == "X" || kind == "i" || kind == "M") << kind;
    // Every event carries the pid/tid Perfetto uses for track assignment.
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    if (kind == "X") {
      saw_span = true;
      EXPECT_NE(event.Find("ts"), nullptr);
      EXPECT_NE(event.Find("dur"), nullptr);
      EXPECT_GE(event.Find("ts")->number(), 0.0);  // rebased to the run start
    } else if (kind == "i") {
      saw_instant = true;
    } else {
      saw_metadata = true;  // thread_name track labels
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_metadata);

  EXPECT_NE(parsed.Find("displayTimeUnit"), nullptr);
  EXPECT_NE(parsed.Find("egraphSummary"), nullptr);
}

// The acceptance shape for the bench integration: a real multi-iteration
// PageRank run must produce at least one pool span per worker per iteration
// and a summary whose busy time is positive and bounded by the wall clock.
TEST_F(TimelineFixture, PagerankRunYieldsPoolSpansPerWorkerPerIteration) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  PagerankOptions pagerank;
  pagerank.iterations = 5;
  RunPagerank(handle, pagerank, RunConfig{});

  const auto snapshots = Timeline::Snapshot();
  int64_t iterations = 0;
  std::set<int> workers_with_runs;
  int64_t pool_chunks = 0;
  for (const auto& snapshot : snapshots) {
    int64_t worker_chunks = 0;
    for (const TimelineEvent& event : snapshot.events) {
      const std::string name = event.name;
      if (std::string(event.cat) == "engine" && name == "iteration") {
        ++iterations;
      }
      if (std::string(event.cat) == "pool" && (name == "run" || name == "steal")) {
        ++worker_chunks;
      }
    }
    if (worker_chunks > 0 && snapshot.worker_id >= 0) {
      workers_with_runs.insert(snapshot.worker_id);
      pool_chunks += worker_chunks;
    }
  }
  EXPECT_EQ(iterations, 5);
  const int workers = ThreadPool::Get().num_threads();
  EXPECT_GE(static_cast<int>(workers_with_runs.size()), 1);
  // Each iteration is at least one parallel pass -> >= iterations chunks per
  // participating worker is too strong under stealing; the aggregate bound
  // (iterations x workers) is schedule-independent.
  EXPECT_GE(pool_chunks, iterations * workers);

  const TimelineSummary summary = SummarizeTimeline();
  EXPECT_GT(summary.wall_seconds, 0.0);
  EXPECT_GT(summary.critical_path_seconds, 0.0);
  EXPECT_LE(summary.critical_path_seconds, summary.wall_seconds * 1.01);
  EXPECT_GT(summary.utilization, 0.0);
  EXPECT_LE(summary.utilization, 1.01);
  EXPECT_GE(summary.imbalance, 0.99);
  int64_t summary_chunks = 0;
  for (const TimelineWorkerSummary& worker : summary.workers) {
    if (worker.worker_id >= 0) {
      summary_chunks += worker.chunks;
    }
  }
  EXPECT_EQ(summary_chunks, pool_chunks);
}

TEST_F(TimelineFixture, SummaryClassifiesForeignThreadsOutsideThePool) {
  Timeline::SetThreadLabel("background");  // a thread outside every pool
  { TimelineSpan span("io", "read.chunk", 4096); }
  const TimelineSummary summary = SummarizeTimeline();
  bool found = false;
  for (const TimelineWorkerSummary& worker : summary.workers) {
    if (worker.label.find("background") != std::string::npos) {
      found = true;
      EXPECT_EQ(worker.chunks, 0) << "io spans must not count as pool chunks";
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace egraph::obs
