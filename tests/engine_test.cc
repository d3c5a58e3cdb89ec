// Engine primitive tests: frontier representations, EdgeMap equivalence
// across layout x direction x sync, push-pull switching, scan helpers,
// GraphHandle preparation accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <set>
#include <string>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/reference.h"
#include "src/engine/dispatch.h"
#include "src/engine/edge_map.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/engine/scan.h"
#include "src/gen/rmat.h"
#include "src/graph/stats.h"
#include "src/util/atomics.h"
#include "src/util/spinlock.h"

namespace egraph {
namespace {

TEST(Frontier, SingleAndNone) {
  Frontier none = Frontier::None(100);
  EXPECT_TRUE(none.Empty());
  Frontier single = Frontier::Single(100, 42);
  EXPECT_EQ(single.Count(), 1);
  single.EnsureDense();
  EXPECT_TRUE(single.Contains(42));
  EXPECT_FALSE(single.Contains(41));
}

TEST(Frontier, AllContainsEverything) {
  Frontier all = Frontier::All(300);
  EXPECT_EQ(all.Count(), 300);
  for (VertexId v = 0; v < 300; ++v) {
    ASSERT_TRUE(all.Contains(v));
  }
  all.EnsureSparse();
  EXPECT_EQ(all.Vertices().size(), 300u);
}

TEST(Frontier, SparseDenseRoundTrip) {
  Frontier f = Frontier::FromVector(1000, {1, 63, 64, 999});
  f.EnsureDense();
  EXPECT_TRUE(f.Contains(63));
  EXPECT_FALSE(f.Contains(62));
  Bitmap bitmap(1000);
  bitmap.Set(5);
  bitmap.Set(700);
  Frontier g = Frontier::FromBitmap(1000, std::move(bitmap), 2);
  g.EnsureSparse();
  EXPECT_EQ(g.Vertices(), (std::vector<VertexId>{5, 700}));
}

TEST(Frontier, WorkEstimateCountsDegreesPlusSize) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 2);
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  Frontier f = Frontier::FromVector(4, {0, 1});
  EXPECT_EQ(f.WorkEstimate(out), 2u + 3u);  // deg(0)=2, deg(1)=1, |F|=2
}

// --- EdgeMap equivalence: BFS reachability across all strategies -----------

struct ReachFunctor {
  uint8_t* visited;
  bool Update(VertexId /*s*/, VertexId d, float) {
    if (visited[d] == 0) {
      AtomicStore(&visited[d], uint8_t{1});
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId /*s*/, VertexId d, float) {
    return AtomicCas(&visited[d], uint8_t{0}, uint8_t{1});
  }
  bool Cond(VertexId d) const { return AtomicLoad(&visited[d]) == 0; }
};

class EdgeMapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RmatOptions options;
    options.scale = 10;
    graph_ = new EdgeList(GenerateRmat(options));
    handle_ = new GraphHandle(*graph_);
    PrepareConfig prepare;
    prepare.layout = Layout::kAdjacency;
    prepare.need_out = true;
    prepare.need_in = true;
    handle_->Prepare(prepare);
    prepare.layout = Layout::kGrid;
    handle_->Prepare(prepare);
    // A star whose every edge enters vertex 0, for the Scan path checks.
    EdgeList star(kStarLeaves + 1, {});
    for (VertexId v = 1; v <= kStarLeaves; ++v) {
      star.AddEdge(v, 0);
    }
    star_ = new GraphHandle(std::move(star));
    prepare.need_in = false;
    star_->Prepare(prepare);
    prepare.layout = Layout::kAdjacency;
    star_->Prepare(prepare);
    // Expected reachable set from vertex 0 (sequential reference).
    const auto levels = RefBfsLevels(*graph_, 0);
    expected_ = new std::set<VertexId>();
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      if (levels[v] != UINT32_MAX) {
        expected_->insert(v);
      }
    }
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete star_;
    delete handle_;
    delete graph_;
  }

  template <typename Step>
  std::set<VertexId> Reach(Step&& step) {
    const VertexId n = graph_->num_vertices();
    std::vector<uint8_t> visited(n, 0);
    visited[0] = 1;
    ReachFunctor func{visited.data()};
    Frontier frontier = Frontier::Single(n, 0);
    while (!frontier.Empty()) {
      frontier = step(frontier, func);
    }
    std::set<VertexId> reached;
    for (VertexId v = 0; v < n; ++v) {
      if (visited[v]) {
        reached.insert(v);
      }
    }
    return reached;
  }

  static EdgeMapOptions Options(Sync sync) {
    EdgeMapOptions options;
    options.sync = sync;
    options.locks = &handle_->locks();
    return options;
  }

  // The dispatch of the stored-edge layouts, which have no kernel of their
  // own: EdgeMap on `layout` under `sync`, with the handle's locks.
  static RunConfig Config(Layout layout, Sync sync) {
    RunConfig config;
    config.layout = layout;
    config.sync = sync;
    return config;
  }

  // How the shared updates of some kernel calls ran: through UpdateAtomic or
  // plain Update, and how many plain ones ran while no thread held the
  // destination's striped lock. Scan takes no functor, so its per-edge
  // values are counted instead, with the same lock probe: that tells a
  // locked add from an unlocked one, though not an atomic add from a plain
  // one. Its sums are checked too.
  struct UpdatePaths {
    std::atomic<int64_t> atomic{0};
    std::atomic<int64_t> plain{0};
    std::atomic<int64_t> unlocked{0};
    std::atomic<int64_t> scan_values{0};
    std::atomic<int64_t> scan_unlocked{0};
    std::atomic<bool> scan_exact{true};
  };

  // True iff no thread holds `lock`: TryLock fails while any holder, the
  // probing thread's own caller included, has it.
  static bool Unheld(Spinlock& lock) {
    if (!lock.TryLock()) {
      return false;
    }
    lock.Unlock();
    return true;
  }

  // Claim-once functor that tallies the path of every update.
  struct PathFunctor {
    uint8_t* claimed;
    StripedLocks* locks;
    UpdatePaths* paths;
    bool Update(VertexId /*s*/, VertexId d, float) {
      paths->plain.fetch_add(1, std::memory_order_relaxed);
      if (Unheld(locks->For(d))) {
        paths->unlocked.fetch_add(1, std::memory_order_relaxed);
      }
      if (claimed[d] == 0) {
        AtomicStore(&claimed[d], uint8_t{1});
        return true;
      }
      return false;
    }
    bool UpdateAtomic(VertexId /*s*/, VertexId d, float) {
      paths->atomic.fetch_add(1, std::memory_order_relaxed);
      return AtomicCas(&claimed[d], uint8_t{0}, uint8_t{1});
    }
    bool Cond(VertexId d) const { return AtomicLoad(&claimed[d]) == 0; }
  };

  // Runs every kernel whose shared updates WithSharedUpdate picks, under
  // `sync`, on the calling thread's current pool: the push, edge-array and
  // row-major grid EdgeMaps over an all-active frontier, and Scan on the
  // edge array, the grid and the out-lists of the star.
  static void RunSharedKernels(Sync sync, UpdatePaths& paths) {
    const VertexId n = graph_->num_vertices();
    const EdgeMapOptions options = Options(sync);
    const auto edge_map = [&](auto kernel) {
      std::vector<uint8_t> claimed(n, 0);
      PathFunctor func{claimed.data(), options.locks, &paths};
      Frontier all = Frontier::All(n);
      kernel(all, func);
    };
    edge_map([&](Frontier& f, PathFunctor& fn) { EdgeMapPush(handle_->out_csr(), f, fn, options); });
    for (const Layout layout : {Layout::kEdgeArray, Layout::kGrid}) {
      edge_map(
          [&](Frontier& f, PathFunctor& fn) { EdgeMap(*handle_, f, fn, Config(layout, sync)); });
    }

    Spinlock& hub_lock = star_->locks().For(0);
    for (const Layout layout : {Layout::kEdgeArray, Layout::kGrid, Layout::kAdjacency}) {
      RunConfig config;
      config.layout = layout;
      config.direction = Direction::kPush;
      config.sync = sync;
      std::vector<float> sums(star_->num_vertices(), 0.0f);
      Scan(
          *star_, config,
          [&](VertexId, float) {
            paths.scan_values.fetch_add(1, std::memory_order_relaxed);
            if (Unheld(hub_lock)) {
              paths.scan_unlocked.fetch_add(1, std::memory_order_relaxed);
            }
            return 1.0f;
          },
          sums.data());
      if (sums[0] != static_cast<float>(kStarLeaves)) {
        paths.scan_exact.store(false);
      }
    }
  }

  // The paths of a call that shares its destinations with other workers:
  // UpdateAtomic under Sync::kAtomics, Update under dst's lock under
  // Sync::kLocks.
  static void ExpectSynchronized(Sync sync, const UpdatePaths& paths, const std::string& where) {
    if (sync == Sync::kAtomics) {
      EXPECT_GT(paths.atomic.load(), 0) << where;
      EXPECT_EQ(paths.plain.load(), 0) << where;
    } else {
      EXPECT_EQ(paths.atomic.load(), 0) << where;
      EXPECT_GT(paths.plain.load(), 0) << where;
      EXPECT_EQ(paths.unlocked.load(), 0) << where;
      EXPECT_EQ(paths.scan_unlocked.load(), 0) << where;
    }
    EXPECT_GT(paths.scan_values.load(), 0) << where;
    EXPECT_TRUE(paths.scan_exact.load()) << where;
  }

  static constexpr VertexId kStarLeaves = 3000;

  static EdgeList* graph_;
  static GraphHandle* handle_;
  static GraphHandle* star_;
  static std::set<VertexId>* expected_;
};

EdgeList* EdgeMapTest::graph_ = nullptr;
GraphHandle* EdgeMapTest::handle_ = nullptr;
GraphHandle* EdgeMapTest::star_ = nullptr;
std::set<VertexId>* EdgeMapTest::expected_ = nullptr;

ExecutionContextOptions PoolOptions(int threads) {
  ExecutionContextOptions options;
  options.name = "pool" + std::to_string(threads);
  options.num_threads = threads;
  return options;
}

TEST_F(EdgeMapTest, CsrPushAtomics) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapPush(handle_->out_csr(), f, fn, Options(Sync::kAtomics));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, CsrPushLocks) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapPush(handle_->out_csr(), f, fn, Options(Sync::kLocks));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, CsrPull) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapPull(handle_->in_csr(), f, fn);
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, CsrPushPull) {
  bool ever_pulled = false;
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    RunConfig config;
    config.direction = Direction::kPushPull;
    Direction used = Direction::kPushPull;
    Frontier next = EdgeMap(*handle_, f, fn, config, /*scratch=*/nullptr, &used);
    ever_pulled |= used == Direction::kPull;
    return next;
  });
  EXPECT_EQ(reached, *expected_);
  // On a power-law graph the mid-traversal frontier is large enough that the
  // heuristic must have switched to pull at least once.
  EXPECT_TRUE(ever_pulled);
}

TEST_F(EdgeMapTest, EdgeArray) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMap(*handle_, f, fn, Config(Layout::kEdgeArray, Sync::kAtomics));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, GridLockFree) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMap(*handle_, f, fn, Config(Layout::kGrid, Sync::kLockFree));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, GridLocks) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMap(*handle_, f, fn, Config(Layout::kGrid, Sync::kLocks));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, GridAtomics) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMap(*handle_, f, fn, Config(Layout::kGrid, Sync::kAtomics));
  });
  EXPECT_EQ(reached, *expected_);
}

// A call that runs alone (ThreadPool::CallRunsAlone) updates plainly under
// either sync: nothing else can touch its destinations. Any other call keeps
// its synchronized path: on a 2-thread pool, and inside a parallel region
// even where ThreadPool::Current() is one thread wide.
TEST_F(EdgeMapTest, SharedUpdatesArePlainOnlyWhenTheCallRunsAlone) {
  ExecutionContext one(PoolOptions(1));
  ExecutionContext two(PoolOptions(2));
  ExecutionContext four(PoolOptions(4));
  for (const Sync sync : {Sync::kAtomics, Sync::kLocks}) {
    const std::string name = SyncName(sync);
    {
      ExecutionContext::Scope scope(one);
      UpdatePaths paths;
      RunSharedKernels(sync, paths);
      const std::string where = name + " alone on 1 thread";
      EXPECT_EQ(paths.atomic.load(), 0) << where;
      EXPECT_GT(paths.plain.load(), 0) << where;
      EXPECT_EQ(paths.unlocked.load(), paths.plain.load()) << where;
      EXPECT_GT(paths.scan_values.load(), 0) << where;
      EXPECT_EQ(paths.scan_unlocked.load(), paths.scan_values.load()) << where;
      EXPECT_TRUE(paths.scan_exact.load()) << where;
    }
    {
      ExecutionContext::Scope scope(two);
      UpdatePaths paths;
      RunSharedKernels(sync, paths);
      ExpectSynchronized(sync, paths, name + " on 2 threads");
    }
    // Inside a region of the 4-thread pool, entered without binding it: the
    // caller runs as worker 0 and still resolves Current() to the
    // process-wide pool, one thread wide at EG_THREADS=1, while the other
    // three workers run their chunks alongside. Each worker holds its chunk
    // until all four hold one, so every worker makes the calls.
    std::latch all_in(4);
    std::vector<UpdatePaths> nested(4);
    four.pool().ParallelForChunks(0, 4, 1, [&](int64_t lo, int64_t, int) {
      all_in.arrive_and_wait();
      RunSharedKernels(sync, nested[static_cast<size_t>(lo)]);
    });
    for (size_t chunk = 0; chunk < nested.size(); ++chunk) {
      ExpectSynchronized(sync, nested[chunk],
                         name + " inside a 4-thread region, chunk " + std::to_string(chunk));
    }
  }
}

// --- Frontier range split (sharded push building block) --------------------

TEST(Frontier, SplitByRangesPreservesMembership) {
  Frontier f = Frontier::FromVector(100, {0, 9, 10, 11, 49, 50, 99});
  std::vector<Frontier> parts = f.SplitByRanges({0, 10, 10, 50, 100});
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].Count(), 2);  // {0, 9}
  EXPECT_TRUE(parts[1].Empty());   // zero-width range [10, 10)
  EXPECT_EQ(parts[2].Count(), 3);  // {10, 11, 49}
  EXPECT_EQ(parts[3].Count(), 2);  // {50, 99}
  std::set<VertexId> merged;
  const std::vector<VertexId> boundaries = {0, 10, 10, 50, 100};
  for (size_t p = 0; p < parts.size(); ++p) {
    parts[p].EnsureSparse();
    for (const VertexId v : parts[p].Vertices()) {
      EXPECT_GE(v, boundaries[p]);
      EXPECT_LT(v, boundaries[p + 1]);
      merged.insert(v);
    }
  }
  EXPECT_EQ(merged, (std::set<VertexId>{0, 9, 10, 11, 49, 50, 99}));
}

TEST(Frontier, SplitByRangesSinglePartitionIsIdentity) {
  Frontier f = Frontier::FromVector(64, {3, 17, 63});
  std::vector<Frontier> parts = f.SplitByRanges({0, 64});
  ASSERT_EQ(parts.size(), 1u);
  parts[0].EnsureSparse();
  EXPECT_EQ(parts[0].Vertices(), (std::vector<VertexId>{3, 17, 63}));
}

TEST(EdgeMapThreshold, LowThresholdForcesPull) {
  EdgeList graph;
  graph.set_num_vertices(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.need_out = true;
  prepare.need_in = true;
  handle.Prepare(prepare);

  std::vector<uint8_t> visited(3, 0);
  visited[0] = 1;
  ReachFunctor func{visited.data()};
  Frontier frontier = Frontier::Single(3, 0);
  RunConfig config;
  config.direction = Direction::kPushPull;
  config.pushpull.threshold_den = 1e9;  // anything is "dense"
  Direction used = Direction::kPushPull;
  EdgeMap(handle, frontier, func, config, /*scratch=*/nullptr, &used);
  EXPECT_EQ(used, Direction::kPull);
}

// --- Scan helpers -----------------------------------------------------------

TEST(Scan, AllScansVisitEveryEdgeExactlyOnce) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = Layout::kAdjacency;
  prepare.need_out = true;
  prepare.need_in = true;
  handle.Prepare(prepare);
  prepare.layout = Layout::kGrid;
  handle.Prepare(prepare);

  const auto count_with = [&](auto scan) {
    std::atomic<uint64_t> count{0};
    scan([&](VertexId, VertexId, float) { count.fetch_add(1, std::memory_order_relaxed); });
    return count.load();
  };

  const uint64_t m = graph.num_edges();
  EXPECT_EQ(count_with([&](auto body) { ScanEdgeArray(handle.edges(), body); }), m);
  EXPECT_EQ(count_with([&](auto body) {
              ScanBySource(handle.out_csr(), body);
            }),
            m);
  EXPECT_EQ(count_with([&](auto body) {
              ScanGridRowMajor(handle.grid(), body);
            }),
            m);
  EXPECT_EQ(count_with([&](auto body) { ScanGridColumnOwned(handle.grid(), body); }), m);

  // The destination fold sums one per in-edge into each destination.
  std::vector<float> in_degree(graph.num_vertices(), 0.0f);
  ScanByDestination(handle.in_csr(), [](VertexId, float) { return 1.0f; }, in_degree.data());
  uint64_t folded = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(in_degree[v], static_cast<float>(handle.in_csr().Degree(v))) << "vertex " << v;
    folded += static_cast<uint64_t>(in_degree[v]);
  }
  EXPECT_EQ(folded, m);
}

TEST(Scan, GridColumnOwnershipIsExclusive) {
  // Writes into per-destination counters without synchronization must be
  // exact under column ownership.
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = Layout::kGrid;
  handle.Prepare(prepare);

  std::vector<uint32_t> in_degree(graph.num_vertices(), 0);
  ScanGridColumnOwned(handle.grid(), [&](VertexId, VertexId dst, float) { ++in_degree[dst]; });
  const std::vector<uint32_t> expected = InDegrees(graph);
  EXPECT_EQ(in_degree, expected);
}

// --- GraphHandle ------------------------------------------------------------

TEST(GraphHandle, AccumulatesPreprocessTimeAndSkipsRebuild) {
  RmatOptions options;
  options.scale = 10;
  GraphHandle handle(GenerateRmat(options));
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);

  PrepareConfig prepare;
  prepare.layout = Layout::kAdjacency;
  handle.Prepare(prepare);
  const double after_out = handle.preprocess_seconds();
  EXPECT_GT(after_out, 0.0);

  // Same request again: no rebuild, no extra time.
  handle.Prepare(prepare);
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), after_out);

  prepare.need_in = true;
  handle.Prepare(prepare);
  EXPECT_GT(handle.preprocess_seconds(), after_out);
  EXPECT_TRUE(handle.has_in_csr());
}

TEST(GraphHandle, EdgeArrayNeedsNoPreprocessing) {
  RmatOptions options;
  options.scale = 9;
  GraphHandle handle(GenerateRmat(options));
  PrepareConfig prepare;
  prepare.layout = Layout::kEdgeArray;
  handle.Prepare(prepare);
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

TEST(GraphHandle, SymmetricInputAliasesInCsrForFree) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  const EdgeList undirected = graph.MakeUndirected();

  // Once the out-CSR exists, asking for the in-CSR charges a second build
  // on directed input and nothing on symmetric input, where in aliases out.
  // Compared as charged-or-not rather than as a ratio of two timings, which
  // a loaded machine can invert.
  PrepareConfig out_only;
  out_only.need_out = true;
  PrepareConfig both = out_only;
  both.need_in = true;
  PrepareConfig aliased = both;
  aliased.symmetric_input = true;

  GraphHandle directed(undirected);
  directed.Prepare(out_only);
  const double directed_out_cost = directed.preprocess_seconds();
  directed.Prepare(both);
  EXPECT_NE(&directed.in_csr(), &directed.out_csr());
  EXPECT_GT(directed.preprocess_seconds(), directed_out_cost);

  GraphHandle symmetric(undirected);
  symmetric.Prepare(out_only);
  const double symmetric_out_cost = symmetric.preprocess_seconds();
  symmetric.Prepare(aliased);
  EXPECT_TRUE(symmetric.has_in_csr());
  EXPECT_EQ(&symmetric.in_csr(), &symmetric.out_csr());
  EXPECT_EQ(symmetric.preprocess_seconds(), symmetric_out_cost);
}

TEST(GraphHandle, SymmetricPushPullBfsIsCorrect) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList undirected = GenerateRmat(options).MakeUndirected();
  GraphHandle handle(undirected);
  RunConfig config;
  config.direction = Direction::kPushPull;
  config.symmetric_input = true;
  const BfsResult result = RunBfs(handle, 0, config);
  const auto levels = RefBfsLevels(undirected, 0);
  for (VertexId v = 0; v < undirected.num_vertices(); ++v) {
    ASSERT_EQ(result.parent[v] != kInvalidVertex, levels[v] != UINT32_MAX) << v;
  }
}

TEST(GraphHandle, AutoGridBlocksScalesWithGraph) {
  EXPECT_EQ(GraphHandle::AutoGridBlocks(100), 4u);
  EXPECT_EQ(GraphHandle::AutoGridBlocks(4 << 20), 256u);
  EXPECT_EQ(GraphHandle::AutoGridBlocks(256 * 1024), 64u);
}

}  // namespace
}  // namespace egraph
