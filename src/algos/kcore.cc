#include "src/algos/kcore.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "src/algos/rounds.h"
#include "src/engine/buckets.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Core number of a vertex not yet peeled.
constexpr uint32_t kLive = std::numeric_limits<uint32_t>::max();

// Bucketed peeling (GBBS's k-core over lazy buckets). A live vertex waits in
// bucket max(remaining degree, k), which never falls below k, the bucket
// being taken; a peeled vertex reports its core, below every bucket still to
// come, so its stale entries drop out. Peeling a bucket costs each live
// neighbour one remaining degree, and a neighbour whose bucket fell (degree
// above k) joins the round's output to be filed again. Members of one
// bucket skip each other (Cond): they share core k.
struct PeelFunctor {
  uint32_t* degree;  // remaining degree: neighbours not yet peeled
  uint32_t* core;
  uint32_t k = 0;

  uint64_t Bucket(VertexId v) const {
    return core[v] != kLive ? core[v] : std::max(degree[v], k);
  }

  bool Update(VertexId /*src*/, VertexId dst, float /*weight*/) {
    const uint32_t old = degree[dst];
    AtomicStore(&degree[dst], old - 1);
    return old > k;
  }

  bool UpdateAtomic(VertexId /*src*/, VertexId dst, float /*weight*/) {
    return reinterpret_cast<std::atomic<uint32_t>*>(&degree[dst])
               ->fetch_sub(1, std::memory_order_relaxed) > k;
  }

  bool Cond(VertexId dst) const { return core[dst] == kLive; }
};

}  // namespace

KcoreResult RunKcore(GraphHandle& handle, const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  KcoreResult result;
  const VertexId n = handle.num_vertices();

  Timer total;
  obs::TraceSession trace(result.stats.trace, "kcore", config.layout, config.direction,
                          config.sync);
  std::vector<uint32_t> degree = OutDegrees(handle, config.layout);
  result.core.assign(n, kLive);
  PeelFunctor func{degree.data(), result.core.data()};
  Buckets buckets(n, [&func](VertexId v) { return func.Bucket(v); });
  // Takes the lowest bucket and peels its members at its id.
  auto peel = [&](Frontier fallen) {
    Frontier taken = buckets.Next(std::move(fallen));
    if (!taken.Empty()) {
      const std::vector<VertexId>& members = taken.Vertices();
      func.k = static_cast<uint32_t>(func.Bucket(members.front()));
      for (const VertexId v : members) {
        func.core[v] = func.k;
      }
    }
    return taken;
  };
  RunRounds(handle, peel(Frontier::All(n)), func, config, ctx, trace, peel);
  result.max_core = func.k;
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

std::vector<uint32_t> RefKcore(const EdgeList& undirected) {
  const VertexId n = undirected.num_vertices();
  std::vector<uint32_t> degree(n, 0);
  for (const Edge& e : undirected.edges()) {
    ++degree[e.src];
  }
  // Bucket peeling (Batagelj-Zaversnik).
  const uint32_t max_degree =
      n == 0 ? 0 : *std::max_element(degree.begin(), degree.end());
  std::vector<std::vector<VertexId>> buckets(max_degree + 1);
  for (VertexId v = 0; v < n; ++v) {
    buckets[degree[v]].push_back(v);
  }
  // Adjacency for peeling.
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degree[v];
  }
  std::vector<VertexId> neighbors(offsets[n]);
  {
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : undirected.edges()) {
      neighbors[cursor[e.src]++] = e.dst;
    }
  }
  std::vector<uint32_t> core(n, 0);
  std::vector<bool> done(n, false);
  std::vector<uint32_t> remaining = degree;
  for (uint32_t k = 0; k <= max_degree; ++k) {
    for (size_t i = 0; i < buckets[k].size(); ++i) {  // bucket grows in-loop
      const VertexId v = buckets[k][i];
      if (done[v] || remaining[v] > k) {
        continue;  // lazy entry: v was re-enqueued at its true level
      }
      done[v] = true;
      core[v] = k;
      for (uint64_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        const VertexId u = neighbors[j];
        if (!done[u] && remaining[u] > k) {
          --remaining[u];
          // Re-enqueue at the level u will actually peel at (lazy deletion:
          // stale entries in higher buckets are skipped by the guard above).
          buckets[std::max(remaining[u], k)].push_back(u);
        }
      }
    }
  }
  return core;
}

}  // namespace egraph
