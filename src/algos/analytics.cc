#include "src/algos/analytics.h"

#include <algorithm>
#include <limits>

#include "src/algos/rounds.h"
#include "src/algos/triangles.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/parallel.h"

namespace egraph {
namespace {

// Level-labelling BFS functor: discovers each vertex once, stamping the
// current round.
struct LevelFunctor {
  uint32_t* level;
  uint32_t round;
  static constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();

  bool Update(VertexId /*src*/, VertexId dst, float) {
    if (level[dst] == kUnreached) {
      AtomicStore(&level[dst], round);
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId /*src*/, VertexId dst, float) {
    return AtomicCas(&level[dst], kUnreached, round);
  }
  bool Cond(VertexId dst) const { return AtomicLoad(&level[dst]) == LevelFunctor::kUnreached; }
};

// BFS from `source` through the engine's rounds, returning the
// eccentricity of `source` and the smallest id in its last level (the
// double-sweep pivot).
std::pair<uint32_t, VertexId> EccentricityAndFarthest(GraphHandle& handle,
                                                      const RunConfig& config,
                                                      ExecutionContext& ctx, VertexId source) {
  const VertexId n = handle.num_vertices();
  std::vector<uint32_t> level(n, LevelFunctor::kUnreached);
  level[source] = 0;
  LevelFunctor func{level.data(), 1};
  VertexId farthest = source;
  obs::EngineTrace record;
  obs::TraceSession trace(record, "diameter", config.layout, config.direction, config.sync);
  RunRounds(handle, Frontier::Single(n, source), func, config, ctx, trace,
            [&](Frontier reached) {
              if (!reached.Empty()) {
                reached.EnsureSparse();
                farthest = *std::min_element(reached.Vertices().begin(),
                                             reached.Vertices().end());
                ++func.round;
              }
              return reached;
            });
  return {func.round - 1, farthest};
}

}  // namespace

double GlobalClusteringCoefficient(const EdgeList& graph) {
  EdgeList simple = graph.MakeUndirected();
  simple.RemoveSelfLoops();
  simple.RemoveDuplicateEdges();

  GraphHandle handle(simple);
  RunConfig config;
  const uint64_t triangles = RunTriangleCount(handle, config).triangles;

  // Wedges: sum over vertices of deg * (deg - 1) / 2 on the undirected
  // simple graph (degree == out-degree after symmetrization + dedup).
  const Csr& out = handle.out_csr();
  const double wedges = ParallelReduceSum<double>(
      0, static_cast<int64_t>(simple.num_vertices()), [&out](int64_t v) {
        const double d = out.Degree(static_cast<VertexId>(v));
        return d * (d - 1.0) / 2.0;
      });
  if (wedges <= 0.0) {
    return 0.0;
  }
  return 3.0 * static_cast<double>(triangles) / wedges;
}

uint32_t EstimateDiameter(const EdgeList& graph, int sweeps, VertexId seed) {
  if (graph.num_vertices() == 0) {
    return 0;
  }
  ExecutionContext& ctx = ExecutionContext::Default();
  GraphHandle handle(graph.MakeUndirected());
  RunConfig config;
  config.symmetric_input = true;
  PrepareForRun(handle, config);
  if (seed >= handle.num_vertices()) {
    seed = 0;
  }

  uint32_t best = 0;
  VertexId pivot = seed;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const auto [eccentricity, farthest] = EccentricityAndFarthest(handle, config, ctx, pivot);
    if (eccentricity > best) {
      best = eccentricity;
    }
    if (farthest == pivot) {
      break;  // converged (isolated seed or symmetric ball)
    }
    pivot = farthest;
  }
  return best;
}

}  // namespace egraph
