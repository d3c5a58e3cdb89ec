// Snapshot-store correctness: the epoch/RCU lifecycle and — above all — the
// differential guarantee that every epoch the incremental merge publishes is
// BIT-IDENTICAL to a from-scratch radix rebuild (+ neighbor sort) of the
// same update prefix. Randomized insert/delete/duplicate/self-loop streams
// replay over an rmat graph and a mega-hub star (the adversarial degree
// distribution for the merge's fixed vertex chunks), in every store
// configuration: out-only, out+in (transposed-effect merge), and symmetric
// (aliased in).
//
// Runs under the `snapshot` ctest label and in the TSan CI job: the
// concurrent-readers test is the evidence that refreezes can publish under
// live queries with no data races and automatic epoch retirement.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/common.h"
#include "src/engine/graph_handle.h"
#include "src/gen/rmat.h"
#include "src/graph/edge_list.h"
#include "src/layout/csr_builder.h"
#include "src/serve/query_session.h"
#include "src/snapshot/delta.h"
#include "src/snapshot/snapshot_store.h"
#include "src/util/rng.h"
#include "tests/pool_widths.h"

namespace egraph {
namespace {

using snapshot::EdgeUpdate;
using snapshot::RefreezeStrategy;
using snapshot::Snapshot;
using snapshot::SnapshotOptions;
using snapshot::SnapshotStore;

EdgeList RmatGraph(int scale) {
  RmatOptions options;
  options.scale = scale;
  options.edge_factor = 8;
  options.seed = 99;
  return GenerateRmat(options);
}

EdgeList MegaHubStar() {
  // One vertex holds ~every edge: the chunk holding the hub carries almost
  // all of the merge's work while the other workers take the rest, and hub
  // deletes tombstone inside one huge sorted slice.
  const VertexId leaves = (1 << 11) + 3;
  EdgeList star(leaves + 1, {});
  star.Reserve(static_cast<EdgeIndex>(leaves) + 64);
  for (VertexId v = 1; v <= leaves; ++v) {
    star.AddEdge(0, v);
  }
  for (VertexId v = 1; v <= 64; ++v) {
    star.AddEdge(v, v + 1);
  }
  return star;
}

// Randomized update stream with all the nasty cases: fresh inserts,
// duplicate inserts (multiset stacking), deletes of live edges, deletes of
// absent edges (no-ops), and self loops. `candidates` tracks edges that
// have existed at some point so deletes hit real targets often.
std::vector<EdgeUpdate> RandomStream(uint64_t* state, int count, VertexId n,
                                     std::vector<Edge>* candidates) {
  std::vector<EdgeUpdate> stream;
  stream.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const uint64_t roll = SplitMix64(*state) % 100;
    EdgeUpdate update;
    if (roll < 55 || candidates->empty()) {
      // Fresh insert.
      update.src = static_cast<VertexId>(SplitMix64(*state) % n);
      update.dst = static_cast<VertexId>(SplitMix64(*state) % n);
      update.insert = true;
      candidates->push_back({update.src, update.dst});
    } else if (roll < 70) {
      // Duplicate insert of a known edge (copies must stack).
      const Edge edge = (*candidates)[SplitMix64(*state) % candidates->size()];
      update = {edge.src, edge.dst, true};
    } else if (roll < 90) {
      // Delete a known edge (every live copy must go).
      const Edge edge = (*candidates)[SplitMix64(*state) % candidates->size()];
      update = {edge.src, edge.dst, false};
    } else if (roll < 95) {
      // Self loop insert.
      const VertexId v = static_cast<VertexId>(SplitMix64(*state) % n);
      update = {v, v, true};
      candidates->push_back({v, v});
    } else {
      // Delete of a (probably) absent edge: must be a no-op.
      update.src = static_cast<VertexId>(SplitMix64(*state) % n);
      update.dst = static_cast<VertexId>(SplitMix64(*state) % n);
      update.insert = false;
    }
    stream.push_back(update);
  }
  return stream;
}

void ExpectCsrIdentical(const Csr& got, const Csr& want, const char* what) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices()) << what;
  EXPECT_EQ(got.offsets(), want.offsets()) << what;
  EXPECT_EQ(got.neighbors(), want.neighbors()) << what;
}

// The canonical from-scratch reference for an edge list: radix build +
// neighbor sort — the exact construction the store's epochs must match bit
// for bit.
Csr ReferenceCsr(const EdgeList& edges, EdgeDirection direction) {
  Csr csr = BuildCsr(edges, direction, BuildMethod::kRadixSort);
  csr.SortNeighborLists();
  return csr;
}

// Replays `batches` through a store (synchronous refreezes) and asserts
// every published epoch — out-CSR, and in-CSR when built — is bit-identical
// to a from-scratch rebuild of the same prefix.
void ReplayDifferential(const EdgeList& base, SnapshotOptions options,
                        const std::vector<std::vector<EdgeUpdate>>& batches) {
  options.background_refreeze = false;
  SnapshotStore store(base, options);

  // Independent reference state: the raw base edge list (unweighted), with
  // each batch applied by the reference semantics.
  EdgeList reference = base;
  reference.mutable_weights().clear();
  reference.RecomputeNumVertices();

  // Epoch 0 must already be canonical.
  {
    const Snapshot epoch0 = store.Pin();
    EXPECT_EQ(epoch0.epoch, 0u);
    ExpectCsrIdentical(epoch0.handle->out_csr(), ReferenceCsr(reference, EdgeDirection::kOut),
                       "epoch 0 out");
  }

  uint64_t expected_epoch = 0;
  for (const std::vector<EdgeUpdate>& batch : batches) {
    store.Apply(batch);
    EXPECT_EQ(store.delta_depth(), batch.size());
    const Snapshot snap = store.Refreeze();
    EXPECT_EQ(store.delta_depth(), 0u);
    ++expected_epoch;
    ASSERT_EQ(snap.epoch, expected_epoch);
    ASSERT_TRUE(snap.handle->frozen());

    reference = snapshot::ApplyUpdatesToEdgeList(reference, batch);
    ExpectCsrIdentical(snap.handle->out_csr(), ReferenceCsr(reference, EdgeDirection::kOut),
                       "merged out-CSR");
    if (options.symmetric) {
      ASSERT_TRUE(snap.handle->has_in_csr());
      EXPECT_EQ(&snap.handle->in_csr(), &snap.handle->out_csr())
          << "symmetric epochs alias in onto out";
    } else if (options.build_in_csr) {
      ASSERT_TRUE(snap.handle->has_in_csr());
      ExpectCsrIdentical(snap.handle->in_csr(), ReferenceCsr(reference, EdgeDirection::kIn),
                         "merged in-CSR");
    }
    // The epoch's canonical edge list matches its CSR (edge-array queries
    // and future full rebuilds see the same multiset).
    EXPECT_EQ(snap.handle->num_edges(), snap.handle->out_csr().num_edges());
  }
  EXPECT_EQ(store.stats().epochs_published, static_cast<int64_t>(batches.size()));
}

std::vector<std::vector<EdgeUpdate>> RandomBatches(uint64_t seed, int batches,
                                                   int per_batch, VertexId n) {
  uint64_t state = seed;
  std::vector<Edge> candidates;
  std::vector<std::vector<EdgeUpdate>> result;
  result.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    result.push_back(RandomStream(&state, per_batch, n, &candidates));
  }
  return result;
}

TEST(SnapshotTest, DifferentialReplayRmatOutAndIn) {
  const EdgeList base = RmatGraph(/*scale=*/10);
  SnapshotOptions options;
  options.build_in_csr = true;  // exercises the transposed-effect in-merge
  AtPoolWidths({1, 4}, [&] {
    ReplayDifferential(base, options,
                       RandomBatches(/*seed=*/7, /*batches=*/6, /*per_batch=*/500,
                                     base.num_vertices()));
  });
}

TEST(SnapshotTest, DifferentialReplayMegaHubStar) {
  const EdgeList base = MegaHubStar();
  // Extra hub-focused churn on top of the random mix: delete and re-insert
  // slabs of the hub's own edges so tombstones land inside the huge slice.
  std::vector<std::vector<EdgeUpdate>> batches =
      RandomBatches(/*seed=*/21, /*batches=*/4, /*per_batch=*/400, base.num_vertices());
  for (VertexId v = 1; v <= 256; ++v) {
    batches[1].push_back({0, v, false});
  }
  for (VertexId v = 64; v <= 128; ++v) {
    batches[2].push_back({0, v, true});
    batches[2].push_back({0, v, true});  // duplicate hub copies
  }
  AtPoolWidths({1, 4}, [&] { ReplayDifferential(base, SnapshotOptions{}, batches); });
}

TEST(SnapshotTest, DifferentialReplaySymmetricMirroredStream) {
  const EdgeList base = RmatGraph(/*scale=*/9).MakeUndirected();
  SnapshotOptions options;
  options.symmetric = true;
  std::vector<std::vector<EdgeUpdate>> batches =
      RandomBatches(/*seed=*/33, /*batches=*/4, /*per_batch=*/300, base.num_vertices());
  for (std::vector<EdgeUpdate>& batch : batches) {
    batch = snapshot::MirrorUpdates(batch);
  }
  ReplayDifferential(base, options, batches);
}

TEST(SnapshotTest, FullRebuildStrategyMatchesIncrementalMerge) {
  const EdgeList base = RmatGraph(/*scale=*/9);
  const std::vector<std::vector<EdgeUpdate>> batches =
      RandomBatches(/*seed=*/5, /*batches=*/3, /*per_batch=*/400, base.num_vertices());

  SnapshotOptions merge_options;
  merge_options.background_refreeze = false;
  merge_options.strategy = RefreezeStrategy::kIncrementalMerge;
  SnapshotOptions rebuild_options = merge_options;
  rebuild_options.strategy = RefreezeStrategy::kFullRebuild;

  SnapshotStore merged(base, merge_options);
  SnapshotStore rebuilt(base, rebuild_options);
  for (const std::vector<EdgeUpdate>& batch : batches) {
    merged.Apply(batch);
    rebuilt.Apply(batch);
    const Snapshot a = merged.Refreeze();
    const Snapshot b = rebuilt.Refreeze();
    ASSERT_EQ(a.epoch, b.epoch);
    ExpectCsrIdentical(a.handle->out_csr(), b.handle->out_csr(),
                       "merge vs full-rebuild epoch");
  }
  EXPECT_GT(merged.stats().merge_seconds, 0.0);
  EXPECT_GT(rebuilt.stats().full_rebuild_seconds, 0.0);
  EXPECT_EQ(merged.stats().full_rebuild_seconds, 0.0);
}

TEST(SnapshotTest, UpdatesGrowVertexSpace) {
  EdgeList base(4, {});
  base.AddEdge(0, 1);
  base.AddEdge(2, 3);
  SnapshotOptions options;
  options.background_refreeze = false;
  SnapshotStore store(base, options);

  store.Apply(EdgeUpdate{9, 5, true});
  const Snapshot snap = store.Refreeze();
  EXPECT_EQ(snap.handle->num_vertices(), 10u);
  EXPECT_EQ(snap.handle->out_csr().num_vertices(), 10u);
  EXPECT_EQ(snap.handle->out_csr().Degree(9), 1u);
  EXPECT_EQ(snap.handle->out_csr().Neighbors(9)[0], 5u);
  // Pre-existing vertices are untouched.
  EXPECT_EQ(snap.handle->out_csr().Degree(0), 1u);
  EXPECT_EQ(snap.handle->out_csr().Degree(4), 0u);
}

TEST(SnapshotTest, ChainStatsKeepsPinnedEpochAcrossCalls) {
  SnapshotOptions options;
  options.background_refreeze = false;
  SnapshotStore store(RmatGraph(/*scale=*/6), options);
  const Snapshot pinned = store.Pin();
  store.Apply(EdgeUpdate{0, 1, true});
  store.Refreeze();
  // Epoch 0 stays live through the pin; every call must still see it (a
  // pruning pass must not forget entries it keeps in place).
  for (int call = 0; call < 2; ++call) {
    const snapshot::SnapshotChainStats chain = store.chain_stats();
    EXPECT_EQ(chain.chain_length, 2) << "call " << call;
    EXPECT_EQ(chain.oldest_live_epoch, pinned.epoch) << "call " << call;
  }
}

TEST(SnapshotTest, DeleteRemovesEveryCopyButLaterInsertsSurvive) {
  EdgeList base(3, {});
  base.AddEdge(0, 1);
  base.AddEdge(0, 1);  // base duplicate
  base.AddEdge(0, 2);
  SnapshotOptions options;
  options.background_refreeze = false;
  SnapshotStore store(base, options);

  // One batch: stack a third copy, delete (wipes all three), re-insert one.
  store.Apply(std::vector<EdgeUpdate>{
      {0, 1, true}, {0, 1, false}, {0, 1, true}});
  Snapshot snap = store.Refreeze();
  EXPECT_EQ(snap.handle->out_csr().Degree(0), 2u);  // one (0,1) + one (0,2)
  EXPECT_EQ(snap.handle->out_csr().Neighbors(0)[0], 1u);
  EXPECT_EQ(snap.handle->out_csr().Neighbors(0)[1], 2u);

  // Next batch: plain delete removes every remaining copy; deleting an
  // absent edge is a no-op; a self loop is an ordinary edge.
  store.Apply(std::vector<EdgeUpdate>{
      {0, 1, false}, {1, 2, false}, {2, 2, true}});
  snap = store.Refreeze();
  EXPECT_EQ(snap.handle->out_csr().Degree(0), 1u);
  EXPECT_EQ(snap.handle->out_csr().Neighbors(0)[0], 2u);
  EXPECT_EQ(snap.handle->out_csr().Degree(2), 1u);
  EXPECT_EQ(snap.handle->out_csr().Neighbors(2)[0], 2u);
  // Batch 1 tombstoned the two BASE copies of (0,1) (the in-batch third
  // copy was cancelled before it ever materialized); batch 2 tombstoned the
  // one surviving re-inserted copy.
  EXPECT_EQ(store.stats().tombstones_dropped, 3u);
}

// Background refreezes publish under live pinned readers: queries keep the
// epoch they pinned, results stay valid, and retired epochs free once the
// last reader lets go (the shared_ptr refcount is the RCU grace period).
TEST(SnapshotTest, ConcurrentReadersDuringBackgroundRefreeze) {
  SnapshotOptions options;
  options.refreeze_threshold = 256;
  options.background_refreeze = true;
  options.merge_threads = 2;
  SnapshotStore store(RmatGraph(/*scale=*/10), options);

  std::weak_ptr<GraphHandle> epoch0 = store.Pin().handle;

  RunConfig config;
  config.layout = Layout::kAdjacency;
  config.direction = Direction::kPush;
  config.sync = Sync::kAtomics;

  // Each reader announces itself and then reads at least once, and the
  // writer waits for all four before its first Apply: the reads overlap the
  // refreezes however the threads are scheduled.
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ExecutionContextOptions ctx_options;
      ctx_options.name = "snapshot.reader" + std::to_string(t);
      ctx_options.num_threads = 1;
      ExecutionContext ctx(ctx_options);
      started.fetch_add(1, std::memory_order_release);
      do {
        const Snapshot snap = store.Pin();
        const BfsResult run =
            RunBfs(*snap.handle, /*source=*/1, config, ctx);
        if (!run.parent.empty()) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  uint64_t state = 4242;
  const VertexId n = store.Pin().handle->num_vertices();
  std::vector<Edge> candidates;
  for (int batch = 0; batch < 12; ++batch) {
    store.Apply(RandomStream(&state, 300, n, &candidates));
  }
  store.Flush();  // every applied update published
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_GE(store.stats().epochs_published, 1);
  EXPECT_EQ(store.stats().updates_applied, 12 * 300);
  EXPECT_EQ(store.stats().updates_merged, 12 * 300);
  EXPECT_GT(reads.load(), 0);
  // Every reader has dropped its pins and newer epochs have published:
  // epoch 0 must have retired (freed), proving pins are what keep epochs
  // alive and nothing leaks the chain.
  EXPECT_TRUE(epoch0.expired());
}

// A query reads the epoch current at Submit time, not at execution time:
// submissions interleaved with refreezes see a consistent per-query graph.
TEST(SnapshotTest, QuerySessionPinsEpochAtSubmit) {
  // Two components {0,1} and {2,3}; the update bridges them, changing WCC's
  // checksum. Edges are mirrored by hand (WCC wants symmetric adjacency).
  EdgeList base(4, {});
  base.AddEdge(0, 1);
  base.AddEdge(1, 0);
  base.AddEdge(2, 3);
  base.AddEdge(3, 2);

  SnapshotOptions store_options;
  store_options.background_refreeze = false;
  SnapshotStore store(base, store_options);

  serve::ServeQuery wcc;
  wcc.kind = serve::QueryKind::kWcc;
  wcc.config.layout = Layout::kAdjacency;
  wcc.config.direction = Direction::kPush;
  wcc.config.sync = Sync::kAtomics;

  serve::QuerySessionOptions session_options;
  session_options.concurrency = 1;
  serve::QuerySession session(store, session_options);

  wcc.id = 0;
  ASSERT_EQ(session.Submit(wcc), serve::SubmitStatus::kAccepted);  // pins epoch 0
  store.Apply(std::vector<EdgeUpdate>{{1, 2, true}, {2, 1, true}});
  store.Refreeze();
  wcc.id = 1;
  ASSERT_EQ(session.Submit(wcc), serve::SubmitStatus::kAccepted);  // pins epoch 1
  const std::vector<serve::ServeResult> results = session.Drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].epoch, 0u);
  EXPECT_EQ(results[1].epoch, 1u);
  EXPECT_NE(results[0].checksum, results[1].checksum)
      << "bridging the components must change the WCC fingerprint";
}

TEST(SnapshotTest, ReadUpdateFileParsesOpsAndComments) {
  const std::string path = ::testing::TempDir() + "/updates.txt";
  {
    std::ofstream out(path);
    out << "# header comment\n"
        << "add 1 2\n"
        << "+ 3 4   # trailing comment\n"
        << "del 1 2\n"
        << "- 5 6\n"
        << "\n";
  }
  const std::vector<EdgeUpdate> updates = snapshot::ReadUpdateFile(path);
  ASSERT_EQ(updates.size(), 4u);
  EXPECT_EQ(updates[0], (EdgeUpdate{1, 2, true}));
  EXPECT_EQ(updates[1], (EdgeUpdate{3, 4, true}));
  EXPECT_EQ(updates[2], (EdgeUpdate{1, 2, false}));
  EXPECT_EQ(updates[3], (EdgeUpdate{5, 6, false}));

  {
    std::ofstream out(path);
    out << "frobnicate 1 2\n";
  }
  EXPECT_THROW(snapshot::ReadUpdateFile(path), std::runtime_error);
  EXPECT_THROW(snapshot::ReadUpdateFile(path + ".missing"), std::runtime_error);
}

TEST(SnapshotTest, MirrorUpdatesPreservesOrderAndOps) {
  const std::vector<EdgeUpdate> updates = {{1, 2, true}, {2, 1, false}, {3, 3, true}};
  const std::vector<EdgeUpdate> mirrored = snapshot::MirrorUpdates(updates);
  ASSERT_EQ(mirrored.size(), 6u);
  EXPECT_EQ(mirrored[0], (EdgeUpdate{1, 2, true}));
  EXPECT_EQ(mirrored[1], (EdgeUpdate{2, 1, true}));
  EXPECT_EQ(mirrored[2], (EdgeUpdate{2, 1, false}));
  EXPECT_EQ(mirrored[3], (EdgeUpdate{1, 2, false}));
  EXPECT_EQ(mirrored[4], (EdgeUpdate{3, 3, true}));
  EXPECT_EQ(mirrored[5], (EdgeUpdate{3, 3, true}));  // self loop mirrors too
}

}  // namespace
}  // namespace egraph
