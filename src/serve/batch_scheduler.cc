#include "src/serve/batch_scheduler.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/algos/common.h"
#include "src/algos/pagerank.h"
#include "src/engine/edge_map.h"
#include "src/engine/scan.h"
#include "src/serve/checksum.h"
#include "src/util/atomics.h"
#include "src/util/bitmap.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph::serve {
namespace {

// Per-vertex state bytes a resident partition drags along beside its CSR
// slice: the queries' 4-byte vertex values (parent / dist / label / rank)
// plus frontier bookkeeping, for a handful of concurrent queries. A rough
// constant on purpose — undersizing partitions costs a little scheduling
// overhead, oversizing them forfeits the cache residency the scheduler
// exists for.
constexpr uint64_t kStateBytesPerVertex = 24;

// The functors mirror the isolated algorithms' relaxations exactly; only the
// dispatch around them changes. All batched traversals run push-style over
// the out-CSR with atomics — their results are schedule-independent
// fixpoints, so the isolated query's direction/sync knobs do not affect the
// checksum they must match.
struct BatchBfsFunctor {
  VertexId* parent;
  bool Update(VertexId src, VertexId dst, float /*w*/) {
    if (parent[dst] == kInvalidVertex) {
      parent[dst] = src;
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId src, VertexId dst, float /*w*/) {
    return AtomicCas(&parent[dst], kInvalidVertex, src);
  }
  bool Cond(VertexId dst) const { return AtomicLoad(&parent[dst]) == kInvalidVertex; }
};

struct BatchSsspFunctor {
  float* dist;
  bool Update(VertexId src, VertexId dst, float w) {
    const float candidate = dist[src] + w;
    if (candidate < dist[dst]) {
      dist[dst] = candidate;
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId src, VertexId dst, float w) {
    return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
  }
  bool Cond(VertexId /*dst*/) const { return true; }
};

struct BatchWccFunctor {
  VertexId* label;
  bool Update(VertexId src, VertexId dst, float /*w*/) {
    if (label[src] < label[dst]) {
      label[dst] = label[src];
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId src, VertexId dst, float /*w*/) {
    return AtomicMin(&label[dst], AtomicLoad(&label[src]));
  }
  bool Cond(VertexId /*dst*/) const { return true; }
};

// One query's life inside the cohort: its vertex-state arrays, the
// per-partition frontier queues the round loop feeds on, and the shared
// dedup bitmap that keeps a destination discovered from two partitions from
// entering the next round twice.
struct QueryState {
  const ServeQuery* query = nullptr;
  bool active = false;
  int rounds = 0;

  // Traversal state (one of these is populated, by kind).
  std::vector<VertexId> parent;  // bfs
  std::vector<float> dist;       // sssp
  std::vector<VertexId> label;   // wcc

  // Pagerank state — the exact arrays RunPagerank's pull path iterates.
  std::vector<uint32_t> degree;
  std::vector<float> rank;
  std::vector<float> contrib;
  std::vector<float> next;
  double dangling = 0.0;
  int remaining = 0;

  // Round plumbing: frontier[p] feeds partition p's task this round;
  // discovered[p] collects what that task found (bucketed at turnover).
  std::vector<std::vector<VertexId>> frontier;
  std::vector<std::vector<VertexId>> discovered;
  Bitmap dedup;

  bool HasWork(size_t p) const {
    return query->kind == QueryKind::kPagerank || !frontier[p].empty();
  }
};

}  // namespace

std::vector<VertexId> ComputeLlcPartitionBoundaries(const Csr& out, uint64_t llc_bytes) {
  const VertexId n = out.num_vertices();
  if (n == 0) {
    return {0, 0};
  }
  const uint64_t edge_bytes = out.has_weights() ? 8 : 4;
  const auto& offsets = out.offsets();
  // Resident bytes of the vertex prefix [0, v): its CSR slice plus
  // per-query vertex state. Monotone, so it doubles as the cost prefix the
  // balanced partitioner binary-searches.
  auto pos = [&offsets, edge_bytes](int64_t v) {
    return static_cast<uint64_t>(offsets[static_cast<size_t>(v)]) * edge_bytes +
           static_cast<uint64_t>(v) * kStateBytesPerVertex;
  };
  const uint64_t total = pos(static_cast<int64_t>(n));
  // Target half the LLC per partition: the other half absorbs the queries'
  // own frontier traffic and whatever else the machine is doing.
  const uint64_t budget = std::max<uint64_t>(llc_bytes / 2, 1);
  int64_t parts = static_cast<int64_t>((total + budget - 1) / budget);
  parts = std::clamp<int64_t>(parts, 1, static_cast<int64_t>(n));
  const std::vector<int64_t> bounds =
      BalancedChunkBoundaries(static_cast<int64_t>(n), parts, pos);
  std::vector<VertexId> boundaries(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    boundaries[i] = static_cast<VertexId>(bounds[i]);
  }
  return boundaries;
}

bool BatchableQuery(const ServeQuery& query) {
  if (query.config.layout != Layout::kAdjacency) {
    return false;
  }
  if (query.kind == QueryKind::kPagerank) {
    // Pull's per-destination in-CSR-order gather is the one float schedule
    // the partition loop reproduces exactly; push-order accumulation differs
    // in ulps the quantized checksum cannot absorb reliably.
    return query.config.direction == Direction::kPull;
  }
  return true;
}

std::vector<ServeResult> RunBatch(GraphHandle& handle,
                                  const std::vector<ServeQuery>& queries,
                                  const std::vector<VertexId>& boundaries,
                                  ExecutionContext& ctx,
                                  const std::vector<obs::RequestTrace>& traces) {
  ExecutionContext::Scope scope(ctx);
  Timer cohort_timer;
  // Everything before this stamp — classification, PrepareForRun, partition
  // boundaries — is the cohort-formation phase of each query's trace.
  const uint64_t exec_start_ns = obs::RequestNowNs();
  const VertexId n = handle.num_vertices();
  const size_t parts = boundaries.size() - 1;
  const size_t num_queries = queries.size();
  std::vector<ServeResult> results(num_queries);
  std::vector<QueryState> states(num_queries);
  const Csr& out = handle.out_csr();
  const PagerankOptions pagerank_defaults;  // damping matches the isolated path

  auto partition_of = [&boundaries](VertexId v) {
    return static_cast<size_t>(std::upper_bound(boundaries.begin(), boundaries.end(), v) -
                               boundaries.begin()) -
           1;
  };

  size_t active_count = 0;
  auto complete = [&](size_t q) {
    QueryState& s = states[q];
    ServeResult& r = results[q];
    s.active = false;
    --active_count;
    r.seconds = cohort_timer.Seconds();
    r.iterations = s.rounds;
    r.trace.done_ns = obs::RequestNowNs();
    r.trace.rounds = s.rounds;
    r.trace.partitions = static_cast<int>(parts);
    switch (s.query->kind) {
      case QueryKind::kBfs:
        r.checksum = ChecksumBfs(s.parent);
        break;
      case QueryKind::kSssp:
        r.checksum = ChecksumSssp(s.dist);
        break;
      case QueryKind::kPagerank:
        r.checksum = ChecksumPagerank(s.rank);
        break;
      case QueryKind::kWcc:
        r.checksum = ChecksumWcc(s.label);
        break;
    }
    r.ok = true;
  };

  bool any_pagerank = false;
  for (size_t q = 0; q < num_queries; ++q) {
    const ServeQuery& query = queries[q];
    QueryState& s = states[q];
    ServeResult& r = results[q];
    s.query = &query;
    r.id = query.id;
    r.kind = query.kind;
    r.worker = 0;
    r.batched = true;
    if (!traces.empty()) {
      r.trace = traces[q];
    }
    r.trace.exec_start_ns = exec_start_ns;
    s.frontier.resize(parts);
    s.discovered.resize(parts);
    s.active = true;
    ++active_count;
    switch (query.kind) {
      case QueryKind::kBfs:
        s.parent.assign(n, kInvalidVertex);
        s.dedup.Resize(static_cast<int64_t>(n));
        if (query.source < n) {
          s.parent[query.source] = query.source;
          s.frontier[partition_of(query.source)].push_back(query.source);
        }
        break;
      case QueryKind::kSssp:
        s.dist.assign(n, std::numeric_limits<float>::infinity());
        s.dedup.Resize(static_cast<int64_t>(n));
        if (query.source < n) {
          s.dist[query.source] = 0.0f;
          s.frontier[partition_of(query.source)].push_back(query.source);
        }
        break;
      case QueryKind::kWcc:
        s.label.resize(n);
        s.dedup.Resize(static_cast<int64_t>(n));
        VertexMap(n, [&s](VertexId v) { s.label[v] = v; });
        for (size_t p = 0; p < parts; ++p) {
          s.frontier[p].reserve(boundaries[p + 1] - boundaries[p]);
          for (VertexId v = boundaries[p]; v < boundaries[p + 1]; ++v) {
            s.frontier[p].push_back(v);
          }
        }
        break;
      case QueryKind::kPagerank: {
        any_pagerank = true;
        s.degree.resize(n);
        VertexMap(n, [&s, &out](VertexId v) { s.degree[v] = out.Degree(v); });
        s.rank.assign(n, n > 0 ? 1.0f / static_cast<float>(n) : 0.0f);
        s.contrib.assign(n, 0.0f);
        s.next.assign(n, 0.0f);
        s.remaining = std::max(0, query.iterations);
        break;
      }
    }
    const bool has_work =
        query.kind == QueryKind::kPagerank
            ? s.remaining > 0 && n > 0
            : std::any_of(s.frontier.begin(), s.frontier.end(),
                          [](const std::vector<VertexId>& f) { return !f.empty(); });
    if (!has_work) {
      complete(q);
    }
  }
  const Csr* in = any_pagerank ? &handle.in_csr() : nullptr;

  struct Task {
    uint32_t p;
    uint32_t q;
  };
  std::vector<Task> tasks;

  while (active_count > 0) {
    // Begin round: pagerank queries compute contributions and dangling mass
    // exactly as RunPagerank does — the deterministic reduction keeps the
    // value bit-identical to the isolated run under any pool width.
    for (size_t q = 0; q < num_queries; ++q) {
      QueryState& s = states[q];
      if (!s.active || s.query->kind != QueryKind::kPagerank) {
        continue;
      }
      s.dangling = ParallelReduceSumDeterministic<double>(
          0, static_cast<int64_t>(n), [&s](int64_t v) {
            if (s.degree[static_cast<size_t>(v)] == 0) {
              return static_cast<double>(s.rank[static_cast<size_t>(v)]);
            }
            s.contrib[static_cast<size_t>(v)] =
                s.rank[static_cast<size_t>(v)] /
                static_cast<float>(s.degree[static_cast<size_t>(v)]);
            return 0.0;
          });
      VertexMap(n, [&s](VertexId v) {
        if (s.degree[v] == 0) {
          s.contrib[v] = 0.0f;
        }
        s.next[v] = 0.0f;
      });
    }

    // Partition-major task list: all queries' work for partition 0, then
    // partition 1, ... Grain-1 dispatch preloads tasks round-robin across
    // the pool, so the workers collectively drain the lowest partitions
    // first — while a partition's edges are LLC-resident they serve every
    // in-flight query, which is the whole point of the scheduler.
    tasks.clear();
    for (size_t p = 0; p < parts; ++p) {
      for (size_t q = 0; q < num_queries; ++q) {
        if (states[q].active && states[q].HasWork(p)) {
          tasks.push_back({static_cast<uint32_t>(p), static_cast<uint32_t>(q)});
        }
      }
    }
    if (tasks.empty()) {
      break;  // unreachable by construction; guards against a stuck loop
    }
    ParallelForChunks(
        0, static_cast<int64_t>(tasks.size()), /*grain=*/1,
        [&](int64_t lo, int64_t hi, int /*worker*/) {
          for (int64_t t = lo; t < hi; ++t) {
            const Task task = tasks[static_cast<size_t>(t)];
            QueryState& s = states[task.q];
            const size_t p = task.p;
            switch (s.query->kind) {
              case QueryKind::kBfs: {
                BatchBfsFunctor func{s.parent.data()};
                EdgeMapOptions options;
                options.balance = s.query->config.balance;
                EdgeMapPushScoped(out, std::span<const VertexId>(s.frontier[p]), func,
                                  options, s.dedup, s.discovered[p]);
                break;
              }
              case QueryKind::kSssp: {
                BatchSsspFunctor func{s.dist.data()};
                EdgeMapOptions options;
                options.balance = s.query->config.balance;
                EdgeMapPushScoped(out, std::span<const VertexId>(s.frontier[p]), func,
                                  options, s.dedup, s.discovered[p]);
                break;
              }
              case QueryKind::kWcc: {
                BatchWccFunctor func{s.label.data()};
                EdgeMapOptions options;
                options.balance = s.query->config.balance;
                EdgeMapPushScoped(out, std::span<const VertexId>(s.frontier[p]), func,
                                  options, s.dedup, s.discovered[p]);
                break;
              }
              case QueryKind::kPagerank: {
                // The isolated pull path's per-destination fold over this
                // partition's destinations: the same float additions, in
                // the same order — bit-identical per destination.
                auto contrib = [c = s.contrib.data()](VertexId src, float /*w*/) {
                  return c[src];
                };
                scan_internal::SumDestinations(*in, boundaries[p], boundaries[p + 1], contrib,
                                               s.next.data());
                break;
              }
            }
          }
        });

    // End round: bucket discoveries into next-round partition queues
    // (traversals) or finish the iteration (pagerank), then retire queries
    // that are done. Discoveries enter the NEXT round only — strict rounds
    // are what keep the iteration structure equal to the isolated path.
    for (size_t q = 0; q < num_queries; ++q) {
      QueryState& s = states[q];
      if (!s.active) {
        continue;
      }
      ++s.rounds;
      if (s.query->kind == QueryKind::kPagerank) {
        const float teleport =
            (1.0f - pagerank_defaults.damping) / static_cast<float>(n) +
            pagerank_defaults.damping * static_cast<float>(s.dangling) /
                static_cast<float>(n);
        VertexMap(n, [&s, teleport, &pagerank_defaults](VertexId v) {
          s.next[v] = teleport + pagerank_defaults.damping * s.next[v];
        });
        s.rank.swap(s.next);
        if (--s.remaining == 0) {
          complete(q);
        }
        continue;
      }
      bool any_work = false;
      for (auto& f : s.frontier) {
        f.clear();
      }
      for (size_t p = 0; p < parts; ++p) {
        for (const VertexId v : s.discovered[p]) {
          s.frontier[partition_of(v)].push_back(v);
        }
        s.discovered[p].clear();
      }
      for (const auto& f : s.frontier) {
        if (!f.empty()) {
          any_work = true;
          break;
        }
      }
      s.dedup.Clear();
      if (!any_work) {
        complete(q);
      }
    }
  }

  return results;
}

}  // namespace egraph::serve
