#include "src/algos/wcc.h"

#include <utility>

#include "src/engine/dispatch.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// v's root. Each vertex passed is pointed at its grandparent (path
// halving). Whatever other workers link or halve meanwhile, a non-root's
// parent is a smaller id of its own tree (a halving writes an id read
// further up the same walk, and trees only merge), so the ids fall at
// every step and the walk ends at the root.
VertexId Find(VertexId* parent, VertexId v) {
  while (true) {
    const VertexId p = AtomicLoad(&parent[v]);
    if (p == v) {
      return v;
    }
    const VertexId grandparent = AtomicLoad(&parent[p]);
    if (grandparent != p) {
      AtomicStore(&parent[v], grandparent);
    }
    v = grandparent;
  }
}

// v's root, read without writing. The last pass uses it: a halving store
// can land after the vertex it moves was pointed at its root and move it
// back to an ancestor, harmless while links still run but not once a
// vertex holds its final label.
VertexId Root(const VertexId* parent, VertexId v) {
  for (VertexId p = AtomicLoad(&parent[v]); p != v; p = AtomicLoad(&parent[v])) {
    v = p;
  }
  return v;
}

// Joins the trees of u and v. Returns whether this call linked two roots.
bool Unite(VertexId* parent, VertexId u, VertexId v) {
  if (AtomicLoad(&parent[u]) == AtomicLoad(&parent[v])) {
    return false;
  }
  while (true) {
    u = Find(parent, u);
    v = Find(parent, v);
    if (u == v) {
      return false;
    }
    if (u < v) {
      std::swap(u, v);
    }
    // The larger root goes under the smaller, unless another link moved it
    // first; then find both roots again.
    if (AtomicCas(&parent[u], u, v)) {
      return true;
    }
  }
}

}  // namespace

WccResult RunWcc(GraphHandle& handle, const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  WccResult result;
  const VertexId n = handle.num_vertices();
  result.label.resize(n);
  Timer total;
  obs::TraceSession trace(result.stats.trace, "wcc", config.layout, config.direction,
                          config.sync);
  VertexId* parent = result.label.data();
  VertexMap(n, [parent](VertexId v) { parent[v] = v; });
  trace.BeginIteration(n, /*frontier_sparse=*/false);
  const EdgeCounts counts =
      ScanStoredEdges(handle, config, [parent](VertexId src, VertexId dst, float /*w*/) {
        return Unite(parent, src, dst);
      });
  VertexMap(n, [parent](VertexId v) { AtomicStore(&parent[v], Root(parent, v)); });
  trace.EndIteration(config.direction, counts.scanned, counts.relaxed);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
