// Sharded substrate vs striped locks: a push-heavy BFS + SSSP mix over the
// same adjacency lists, once through EdgeMapPush with striped-lock
// synchronization (Sync::kLocks) and once through the two-phase sharded push
// (owned applies + whole-cache-line aggregated flushes, no vertex-state
// locks anywhere). Both runs use an 8-worker context — below that the
// two-phase barrier and buffer traffic cost more than the contention they
// remove, which is exactly the advisor's kShardedWorkerThreshold story.
//
// Hard gates (exit 1):
//   - reachability / distance checksums of the two backends must agree,
//   - the sharded mix (min of reps) must beat the striped-lock mix when the
//     machine can actually host the 8 workers in parallel and the timings
//     are large enough to be meaningful; on smaller machines (or at smoke
//     scales) contention never materializes and the two-phase overhead is
//     all that is measured, so the gate degrades to a regression bound
//     instead of demanding a win the hardware cannot produce,
//   - in the cache model, the sharded write stream (owner-local applies +
//     sequential L1-resident batch buffers) must miss less than the striped
//     scatter's random remote writes — engaged only when the vertex state
//     actually exceeds the modeled cache, which is what creates the remote
//     misses in the first place.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/algos/sssp.h"
#include "src/cachesim/cache_model.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/shard/aggregation_buffer.h"
#include "src/shard/sharded_graph.h"

namespace {

int g_failures = 0;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

}  // namespace

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  PrintBanner("Shard aggregation: striped-lock scatter vs sharded aggregated flushes",
              "at >=8 workers the two-phase sharded push (owned applies + "
              "whole-cache-line batch flushes) beats the striped-lock scatter on a "
              "push-heavy BFS+SSSP mix; the cache model shows the random remote "
              "write stream collapsing into batched sequential applies",
              "rmat at EG_SCALE, random weights for SSSP");

  EdgeList graph = Rmat();
  graph.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0x5eed);
  const VertexId source = GoodSource(graph);
  const VertexId n = graph.num_vertices();

  constexpr int kWorkers = 8;
  ExecutionContextOptions ctx_options;
  ctx_options.name = "bench.shard";
  ctx_options.num_threads = kWorkers;
  ExecutionContext ctx(ctx_options);

  RunConfig striped;
  striped.layout = Layout::kAdjacency;
  striped.direction = Direction::kPush;
  striped.sync = Sync::kLocks;

  RunConfig sharded;
  sharded.layout = Layout::kSharded;
  sharded.direction = Direction::kPush;
  sharded.shards = 2 * kWorkers;

  struct MixResult {
    double mix_min = 1e30;
    int64_t bfs_reached = 0;
    int64_t sssp_reached = 0;
    double sssp_checksum = 0.0;
    double bfs_last = 0.0;
    double sssp_last = 0.0;
  };

  constexpr int kReps = 3;
  auto run_mix = [&](const RunConfig& config, const std::string& label) {
    MixResult out;
    GraphHandle handle(graph);  // layout build amortized across reps
    for (int rep = 0; rep < kReps; ++rep) {
      const BfsResult bfs = RunBfs(handle, source, config, ctx);
      const SsspResult sssp = RunSssp(handle, source, config, ctx);
      RecordResult("bfs push " + label, bfs.stats.algorithm_seconds);
      RecordResult("sssp push " + label, sssp.stats.algorithm_seconds);
      const double mix = bfs.stats.algorithm_seconds + sssp.stats.algorithm_seconds;
      if (mix < out.mix_min) {
        out.mix_min = mix;
      }
      out.bfs_last = bfs.stats.algorithm_seconds;
      out.sssp_last = sssp.stats.algorithm_seconds;
      if (rep == kReps - 1) {
        out.bfs_reached = 0;
        for (const VertexId p : bfs.parent) {
          out.bfs_reached += (p != kInvalidVertex) ? 1 : 0;
        }
        out.sssp_reached = 0;
        out.sssp_checksum = 0.0;
        for (const float d : sssp.dist) {
          if (!std::isinf(d)) {
            ++out.sssp_reached;
            out.sssp_checksum += static_cast<double>(d);
          }
        }
      }
    }
    return out;
  };

  const MixResult striped_result = run_mix(striped, "striped-locks");
  const MixResult sharded_result = run_mix(sharded, "sharded");

  Table table({"cell", "bfs", "sssp", "mix(min)"});
  table.AddRow({"striped-locks push", Sec(striped_result.bfs_last),
                Sec(striped_result.sssp_last), Sec(striped_result.mix_min)});
  table.AddRow({"sharded push", Sec(sharded_result.bfs_last),
                Sec(sharded_result.sssp_last), Sec(sharded_result.mix_min)});

  // Checksum identity: same fixpoints regardless of apply path.
  Gate(striped_result.bfs_reached == sharded_result.bfs_reached,
       "BFS reachability differs: striped " + std::to_string(striped_result.bfs_reached) +
           " vs sharded " + std::to_string(sharded_result.bfs_reached));
  Gate(striped_result.sssp_reached == sharded_result.sssp_reached,
       "SSSP reached-set size differs");
  const double checksum_tolerance =
      1e-3 * (1.0 + std::max(striped_result.sssp_checksum, 1.0));
  Gate(std::abs(striped_result.sssp_checksum - sharded_result.sssp_checksum) <
           checksum_tolerance,
       "SSSP distance checksum differs: striped " +
           std::to_string(striped_result.sssp_checksum) + " vs sharded " +
           std::to_string(sharded_result.sssp_checksum));

  // The win gate: aggregated flushes must beat the striped scatter at 8
  // workers — once the machine can truly run them in parallel and the run is
  // long enough for the comparison to mean anything.
  const bool parallel_capable =
      std::thread::hardware_concurrency() >= static_cast<unsigned>(kWorkers);
  bool armed = false;
  const bool held = TimingGate(sharded_result.mix_min, striped_result.mix_min, 1.0,
                               parallel_capable, &armed);
  Gate(held,
       "sharded mix " + Sec(sharded_result.mix_min) + " vs striped " +
           Sec(striped_result.mix_min) + " at " + std::to_string(kWorkers) + " workers (" +
           (armed ? "win gate" : "regression bound") + ")");
  if (!armed) {
    std::printf("win gate in regression-bound mode (hardware_concurrency=%u, "
                "striped mix %s)\n",
                std::thread::hardware_concurrency(), Sec(striped_result.mix_min).c_str());
  }

  // --- Cache model: the write streams of one all-active push round ---------
  // Striped scatter: one random vertex-state write per edge, in edge order.
  // Sharded: owner-local writes stay inside the shard's range; each remote
  // edge becomes a sequential write into the (s,t) pair's L1-resident open
  // batch, then (phase 2) a sequential batch read plus a state write
  // confined to the owner shard's range.
  {
    GraphHandle handle(graph);
    PrepareConfig prepare;
    handle.Prepare(prepare);
    const Csr& out = handle.out_csr();
    const ShardedGraph shard_map = ShardedGraph::Build(out, nullptr, 2 * kWorkers);
    const int num_shards = shard_map.num_shards();

    CacheConfig small_cache;
    small_cache.size_bytes = 256u << 10;  // model a per-core L2 slice
    const uint64_t kStateBase = 0x10000000ull;
    const uint64_t kBufferBase = 0x20000000ull;
    const uint64_t kBatchBytes = 4096;  // kDefaultAggregationCapacity * 16B
    const uint64_t state_bytes = static_cast<uint64_t>(n) * 4;

    CacheModel scatter_cache(small_cache);
    for (VertexId src = 0; src < n; ++src) {
      for (const VertexId dst : out.Neighbors(src)) {
        scatter_cache.Access(kStateBase + static_cast<uint64_t>(dst) * 4);
      }
    }

    CacheModel sharded_cache(small_cache);
    std::vector<std::vector<VertexId>> pending(
        static_cast<size_t>(num_shards) * static_cast<size_t>(num_shards));
    std::vector<uint64_t> offsets(pending.size(), 0);
    for (int s = 0; s < num_shards; ++s) {
      for (VertexId src = shard_map.ShardBegin(s); src < shard_map.ShardEnd(s); ++src) {
        for (const VertexId dst : out.Neighbors(src)) {
          const int t = shard_map.ShardOf(dst);
          if (t == s) {
            sharded_cache.Access(kStateBase + static_cast<uint64_t>(dst) * 4);
          } else {
            const size_t pair = static_cast<size_t>(s) * static_cast<size_t>(num_shards) +
                                static_cast<size_t>(t);
            sharded_cache.AccessRange(
                kBufferBase + static_cast<uint64_t>(pair) * kBatchBytes +
                    (offsets[pair] % kBatchBytes),
                sizeof(ShardUpdate));
            offsets[pair] += sizeof(ShardUpdate);
            pending[pair].push_back(dst);
          }
        }
      }
    }
    for (int t = 0; t < num_shards; ++t) {
      for (int s = 0; s < num_shards; ++s) {
        const size_t pair = static_cast<size_t>(s) * static_cast<size_t>(num_shards) +
                            static_cast<size_t>(t);
        uint64_t read_offset = 0;
        for (const VertexId dst : pending[pair]) {
          sharded_cache.AccessRange(kBufferBase + static_cast<uint64_t>(pair) * kBatchBytes +
                                        (read_offset % kBatchBytes),
                                    16);
          read_offset += 16;
          sharded_cache.Access(kStateBase + static_cast<uint64_t>(dst) * 4);
        }
      }
    }

    char scatter_cell[64];
    char sharded_cell[64];
    std::snprintf(scatter_cell, sizeof(scatter_cell), "%llu misses (%.1f%%)",
                  static_cast<unsigned long long>(scatter_cache.misses()),
                  100.0 * scatter_cache.MissRatio());
    std::snprintf(sharded_cell, sizeof(sharded_cell), "%llu misses (%.1f%%)",
                  static_cast<unsigned long long>(sharded_cache.misses()),
                  100.0 * sharded_cache.MissRatio());
    table.AddRow({"cachesim scatter writes", scatter_cell, "-", "-"});
    table.AddRow({"cachesim sharded writes", sharded_cell, "-", "-"});

    // Only gate when the state spills the modeled cache — with everything
    // resident both streams see compulsory misses only and the comparison
    // is meaningless.
    if (state_bytes > 4 * small_cache.size_bytes) {
      Gate(sharded_cache.misses() < scatter_cache.misses(),
           "sharded write stream misses (" + std::to_string(sharded_cache.misses()) +
               ") not below striped scatter (" + std::to_string(scatter_cache.misses()) +
               ")");
    }
  }

  table.Print("Shard aggregation vs striped locks (8 workers)");
  if (g_failures != 0) {
    std::fprintf(stderr, "%d shard-aggregation gate(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all shard-aggregation gates passed\n");
  return 0;
}
