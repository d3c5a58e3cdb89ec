// Streaming-update refreeze cost: incremental two-pointer merge vs the
// paper's Table-2 radix rebuild, as a function of delta size.
//
// The paper's central finding is that pre-processing (adjacency-list
// creation) frequently dominates end-to-end time. A snapshot store that
// radix-rebuilt its CSR on every batch of edge updates would pay that
// dominant cost per batch; the SnapshotStore instead merges the sorted
// delta into the previous epoch's sorted CSR in O(E + D). This bench
// measures both strategies over the same update streams at deltas of 1%,
// 5% and 10% of E (~80/20 insert/delete mix) and gates that the merge is
// faster at every fraction (armed once the rebuild is long enough to mean
// something, see TimingGate) — the regime the store targets (the two
// converge as D approaches E, which is why full rebuild survives as an
// option and as this bench's baseline).
//
// Correctness rides along: after every refreeze the merged epoch must be
// bit-identical (offsets + neighbors) to the full-rebuild epoch produced
// from the same update stream.
//
// Part B serves a query mix from a QuerySession pinned to the store while
// a writer thread streams update batches through background refreezes —
// the serve-during-updates latency profile (p50/p95), plus the invariant
// that epochs pinned by successive submissions never go backwards.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/query_session.h"
#include "src/snapshot/snapshot_store.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

using namespace egraph;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double index = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// ~80% inserts of fresh random pairs, ~20% deletes of real base edges —
// deletes must hit existing neighbors or the tombstone path goes untested.
std::vector<snapshot::EdgeUpdate> MakeStream(const EdgeList& base, size_t count,
                                             uint64_t* state) {
  const VertexId n = base.num_vertices();
  const size_t m = base.edges().size();
  std::vector<snapshot::EdgeUpdate> updates;
  updates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    snapshot::EdgeUpdate update;
    if (SplitMix64(*state) % 5 == 0) {
      const Edge& victim = base.edges()[SplitMix64(*state) % m];
      update = {victim.src, victim.dst, /*insert=*/false};
    } else {
      update = {static_cast<VertexId>(SplitMix64(*state) % n),
                static_cast<VertexId>(SplitMix64(*state) % n), /*insert=*/true};
    }
    updates.push_back(update);
  }
  return updates;
}

bool SameCsr(const Csr& a, const Csr& b) {
  return a.num_vertices() == b.num_vertices() && a.offsets() == b.offsets() &&
         a.neighbors() == b.neighbors();
}

}  // namespace

int main() {
  using namespace egraph::bench;
  PrintBanner(
      "Snapshot refreeze: incremental merge vs Table-2 radix rebuild",
      "incremental merge beats the from-scratch radix rebuild at every delta "
      "fraction <= 10% of E; merged epochs bit-identical to rebuilt epochs",
      "twitter-proxy rmat at EG_SCALE, directed; deltas of 1/5/10% of E");

  const EdgeList base = Twitter();
  const std::string dataset = "twitter-" + std::to_string(Scale());
  const size_t num_edges = base.edges().size();
  const VertexId good = GoodSource(base);

  constexpr int kReps = 3;
  const std::vector<int> fractions = {1, 5, 10};
  uint64_t state = 20260809;

  // One store per strategy per fraction, reused across reps: every rep
  // applies the same fresh stream to both stores, so their epochs stay in
  // lockstep and each rep measures a delta of the target size against an
  // equally-sized base.
  snapshot::SnapshotOptions merge_options;
  merge_options.background_refreeze = false;
  snapshot::SnapshotOptions rebuild_options = merge_options;
  rebuild_options.strategy = snapshot::RefreezeStrategy::kFullRebuild;

  Table table({"delta", "dataset", "merge", "radix rebuild", "speedup", "epochs"});
  bool all_identical = true;
  bool merge_wins_everywhere = true;
  for (const int fraction : fractions) {
    const size_t delta = std::max<size_t>(1, num_edges * fraction / 100);
    snapshot::SnapshotStore merge_store(base, merge_options);
    snapshot::SnapshotStore rebuild_store(base, rebuild_options);
    const std::string suffix = " delta " + std::to_string(fraction) + "%";
    double merge_min = 0.0;
    double rebuild_min = 0.0;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::vector<snapshot::EdgeUpdate> stream =
          MakeStream(base, delta, &state);
      const double merge_before = merge_store.stats().merge_seconds;
      merge_store.Apply(stream);
      merge_store.Refreeze();
      const double merge_seconds =
          merge_store.stats().merge_seconds - merge_before;
      const double rebuild_before = rebuild_store.stats().full_rebuild_seconds;
      rebuild_store.Apply(stream);
      rebuild_store.Refreeze();
      const double rebuild_seconds =
          rebuild_store.stats().full_rebuild_seconds - rebuild_before;
      RecordResult("merge" + suffix, merge_seconds, dataset);
      RecordResult("radix rebuild" + suffix, rebuild_seconds, dataset);
      merge_min = rep == 0 ? merge_seconds : std::min(merge_min, merge_seconds);
      rebuild_min =
          rep == 0 ? rebuild_seconds : std::min(rebuild_min, rebuild_seconds);
      identical &= SameCsr(merge_store.Pin().handle->out_csr(),
                           rebuild_store.Pin().handle->out_csr());
    }
    all_identical &= identical;
    merge_wins_everywhere &= TimingGate(merge_min, rebuild_min, 1.0, /*can_arm=*/true);
    char merge_cell[32], rebuild_cell[32], speedup[32];
    std::snprintf(merge_cell, sizeof(merge_cell), "%.4fs", merge_min);
    std::snprintf(rebuild_cell, sizeof(rebuild_cell), "%.4fs", rebuild_min);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", rebuild_min / merge_min);
    table.AddRow({std::to_string(fraction) + "% of E", dataset, merge_cell,
                  rebuild_cell, speedup, identical ? "identical" : "DIVERGED"});
  }
  table.Print("refreeze cost per strategy (min of " + std::to_string(kReps) +
              " reps; new stream each rep)");

  if (!all_identical) {
    std::fprintf(stderr,
                 "snapshot bench: FAIL - merged epoch diverged from the "
                 "full-rebuild epoch for the same update stream\n");
    return 1;
  }
  if (!merge_wins_everywhere) {
    std::fprintf(stderr,
                 "snapshot bench: FAIL - incremental merge lost to the full "
                 "radix rebuild at some delta fraction <= 10%% of E\n");
    return 1;
  }

  // --- Part B: serving while the graph changes underneath ----------------
  //
  // A writer streams 8 update batches into the store (background refreeze,
  // threshold = one batch) while a 4-worker QuerySession executes a
  // BFS+PageRank mix; pagerank's pull pass makes every epoch maintain an
  // in-CSR incrementally too. Queries pin their epoch at submit, so the
  // latency cells measure query execution overlapped with merges — the
  // serving scenario the store exists for. Each of kReps reps serves the
  // same mix and stream on a fresh store and session, so each latency cell
  // holds kReps samples and is gated on their minimum like every other.
  const size_t batch = std::max<size_t>(1, num_edges / 100);
  for (int rep = 0; rep < kReps; ++rep) {
    snapshot::SnapshotOptions serve_options;
    serve_options.build_in_csr = true;
    serve_options.refreeze_threshold = batch;
    serve_options.background_refreeze = true;
    snapshot::SnapshotStore store(base, serve_options);

    serve::QuerySessionOptions session_options;
    session_options.concurrency = 4;
    session_options.queue_capacity = 64;
    serve::QuerySession session(store, session_options);

    std::thread writer([&] {
      uint64_t writer_state = 7;
      for (int b = 0; b < 8; ++b) {
        store.Apply(MakeStream(base, batch, &writer_state));
      }
      store.Flush();
    });

    RunConfig config;
    config.layout = Layout::kAdjacency;
    config.direction = Direction::kPush;
    uint64_t source_state = 11;
    int accepted = 0;
    for (int i = 0; i < 16; ++i) {
      serve::ServeQuery query;
      query.id = i;
      query.config = config;
      if (i % 2 == 0) {
        query.kind = serve::QueryKind::kBfs;
        query.source = (i % 4 == 0) ? good
                                    : static_cast<VertexId>(SplitMix64(source_state) %
                                                            base.num_vertices());
      } else {
        query.kind = serve::QueryKind::kPagerank;
        query.config.direction = Direction::kPull;
        query.iterations = 3;
      }
      accepted += session.Submit(query) == serve::SubmitStatus::kAccepted ? 1 : 0;
    }
    writer.join();
    const std::vector<serve::ServeResult> results = session.Drain();

    bool all_ok = accepted == 16 && results.size() == 16;
    uint64_t last_epoch = 0;
    std::vector<double> latencies;
    for (const serve::ServeResult& result : results) {
      all_ok &= result.ok;
      all_ok &= result.epoch >= last_epoch;  // pins never go backwards
      last_epoch = result.epoch;
      latencies.push_back(result.seconds);
    }
    const double p50 = Percentile(latencies, 0.50);
    const double p95 = Percentile(latencies, 0.95);
    RecordResult("serve-during-updates p50", p50, dataset);
    RecordResult("serve-during-updates p95", p95, dataset);

    const snapshot::SnapshotStoreStats stats = store.stats();
    std::printf("serve-during-updates rep %d: 16 queries over epochs 0..%llu "
                "(%lld published), p50 %.4fs p95 %.4fs, %lld updates merged\n",
                rep, static_cast<unsigned long long>(stats.epoch),
                static_cast<long long>(stats.epochs_published), p50, p95,
                static_cast<long long>(stats.updates_merged));
    if (!all_ok) {
      std::fprintf(stderr,
                   "snapshot bench: FAIL - serving during updates lost or "
                   "reordered epochs (accepted %d, completed %zu)\n",
                   accepted, results.size());
      return 1;
    }
    if (stats.updates_merged != static_cast<int64_t>(8 * batch)) {
      std::fprintf(stderr,
                   "snapshot bench: FAIL - %lld/%lld updates merged after "
                   "Flush\n",
                   static_cast<long long>(stats.updates_merged),
                   static_cast<long long>(8 * batch));
      return 1;
    }
  }
  return 0;
}
