#include "src/algos/betweenness.h"

#include <limits>
#include <queue>
#include <stack>

#include "src/algos/rounds.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();

// Forward-phase path counting over one BFS level: the first update to reach
// an unreached vertex claims it for the next level (and reports it), and
// every update from a level-d predecessor adds that predecessor's path
// count. Cond keeps the unreached and the next level: a pull gather then
// walks all of a vertex's predecessors instead of stopping at the first.
struct PathCountFunctor {
  uint32_t* level;
  double* sigma;
  uint32_t next_level = 1;

  bool Update(VertexId src, VertexId dst, float /*weight*/) {
    const bool claimed = level[dst] == kUnreached;
    if (claimed) {
      AtomicStore(&level[dst], next_level);
    }
    sigma[dst] += sigma[src];
    return claimed;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float /*weight*/) {
    const bool claimed = AtomicCas(&level[dst], kUnreached, next_level);
    AtomicAdd(&sigma[dst], sigma[src]);
    return claimed;
  }

  bool Cond(VertexId dst) const {
    const uint32_t l = AtomicLoad(&level[dst]);
    return l == kUnreached || l == next_level;
  }
};

}  // namespace

BcResult RunBetweenness(GraphHandle& handle, std::span<const VertexId> sources,
                        const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  RunConfig bc_config = config;
  bc_config.layout = Layout::kAdjacency;
  PrepareForRun(handle, bc_config);
  RunConfig backward = bc_config;
  backward.direction = Direction::kPush;
  PrepareForRun(handle, backward);  // the backward phase walks out-lists

  BcResult result;
  const VertexId n = handle.num_vertices();
  result.centrality.assign(n, 0.0);
  if (n == 0) {
    return result;
  }
  const Csr& out = handle.out_csr();

  Timer total;
  obs::TraceSession trace(result.stats.trace, "betweenness", bc_config.layout,
                          bc_config.direction, bc_config.sync);
  std::vector<uint32_t> level(n);
  std::vector<double> sigma(n);  // shortest-path counts
  std::vector<double> delta(n);  // dependency accumulators

  for (const VertexId source : sources) {
    if (source >= n) {
      continue;
    }
    VertexMap(n, [&](VertexId v) {
      level[v] = kUnreached;
      sigma[v] = 0.0;
      delta[v] = 0.0;
    });
    level[source] = 0;
    sigma[source] = 1.0;

    // Forward phase: level-synchronous rounds; each round's discoveries are
    // the next level, recorded for the backward phase.
    PathCountFunctor func{level.data(), sigma.data()};
    std::vector<std::vector<VertexId>> levels{{source}};
    RunRounds(handle, Frontier::Single(n, source), func, bc_config, ctx, trace,
              [&](Frontier next) {
                if (!next.Empty()) {
                  next.EnsureSparse();
                  levels.push_back(next.Vertices());
                  ++func.next_level;
                }
                return next;
              });

    // Backward phase: process levels deepest-first; each vertex gathers from
    // its successors (out-neighbors one level deeper) — writes are to the
    // vertex itself, so no synchronization is needed within a level.
    for (size_t d = levels.size(); d-- > 1;) {
      const std::vector<VertexId>& frontier = levels[d - 1];
      ParallelForGrain(0, static_cast<int64_t>(frontier.size()), /*grain=*/64,
                       [&](int64_t i) {
                         const VertexId v = frontier[static_cast<size_t>(i)];
                         double acc = 0.0;
                         for (const VertexId w : out.Neighbors(v)) {
                           if (level[w] == level[v] + 1 && sigma[w] > 0.0) {
                             acc += sigma[v] / sigma[w] * (1.0 + delta[w]);
                           }
                         }
                         delta[v] = acc;
                       });
    }
    VertexMap(n, [&](VertexId v) {
      if (v != source && level[v] != kUnreached) {
        result.centrality[v] += delta[v];
      }
    });
  }
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

std::vector<double> RefBetweenness(const EdgeList& graph,
                                   std::span<const VertexId> sources) {
  const VertexId n = graph.num_vertices();
  std::vector<double> centrality(n, 0.0);
  // Sequential adjacency.
  std::vector<std::vector<VertexId>> adj(n);
  for (const Edge& e : graph.edges()) {
    adj[e.src].push_back(e.dst);
  }
  for (const VertexId source : sources) {
    if (source >= n) {
      continue;
    }
    std::vector<int64_t> dist(n, -1);
    std::vector<double> sigma(n, 0.0);
    std::vector<double> delta(n, 0.0);
    std::vector<std::vector<VertexId>> predecessors(n);
    std::stack<VertexId> order;
    std::queue<VertexId> queue;
    dist[source] = 0;
    sigma[source] = 1.0;
    queue.push(source);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop();
      order.push(u);
      for (const VertexId v : adj[u]) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          queue.push(v);
        }
        if (dist[v] == dist[u] + 1) {
          sigma[v] += sigma[u];
          predecessors[v].push_back(u);
        }
      }
    }
    while (!order.empty()) {
      const VertexId w = order.top();
      order.pop();
      for (const VertexId v : predecessors[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != source) {
        centrality[w] += delta[w];
      }
    }
  }
  return centrality;
}

}  // namespace egraph
