#include "src/layout/csr_builder.h"

#include <atomic>
#include <cstring>

#include "src/graph/stats.h"
#include "src/layout/radix_sort.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"
#include "src/util/spinlock.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

VertexId KeyOf(const Edge& e, EdgeDirection direction) {
  return direction == EdgeDirection::kOut ? e.src : e.dst;
}

VertexId ValueOf(const Edge& e, EdgeDirection direction) {
  return direction == EdgeDirection::kOut ? e.dst : e.src;
}

Csr BuildRadix(const EdgeList& graph, EdgeDirection direction, int digit_bits,
               double* seconds) {
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.radix",
                                  static_cast<int64_t>(graph.edges().size()));
  Csr csr;
  const VertexId n = graph.num_vertices();
  const size_t m = graph.edges().size();

  const int key_bits = RadixKeyBits(n);
  auto key = [direction](const Edge& e) { return KeyOf(e, direction); };
  if (!graph.has_weights()) {
    const std::vector<Edge> sorted =
        ParallelRadixSort<Edge>(graph.edges(), key_bits, key, digit_bits);
    std::vector<VertexId> neighbors(m);
    ParallelFor(0, static_cast<int64_t>(m), [&](int64_t i) {
      neighbors[static_cast<size_t>(i)] = ValueOf(sorted[static_cast<size_t>(i)], direction);
    });
    csr.Init(n, OffsetsFromSorted(sorted, n, key), std::move(neighbors), {});
  } else {
    const std::vector<WeightedEdge> sorted =
        RadixSortWeightedEdges(graph, key_bits, key, digit_bits);
    std::vector<VertexId> neighbors(m);
    std::vector<float> weights(m);
    ParallelFor(0, static_cast<int64_t>(m), [&](int64_t i) {
      neighbors[static_cast<size_t>(i)] =
          ValueOf(sorted[static_cast<size_t>(i)].edge, direction);
      weights[static_cast<size_t>(i)] = sorted[static_cast<size_t>(i)].weight;
    });
    csr.Init(n,
             OffsetsFromSorted(sorted, n, [&key](const WeightedEdge& r) { return key(r.edge); }),
             std::move(neighbors), std::move(weights));
  }
  if (seconds != nullptr) {
    *seconds = timer.Seconds();
  }
  return csr;
}

}  // namespace

const char* BuildMethodName(BuildMethod method) {
  switch (method) {
    case BuildMethod::kDynamic:
      return "dynamic";
    case BuildMethod::kCountSort:
      return "count-sort";
    case BuildMethod::kRadixSort:
      return "radix-sort";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DynamicAdjacencyBuilder

struct DynamicAdjacencyBuilder::Impl {
  VertexId num_vertices;
  EdgeDirection direction;
  bool weighted;
  // Per-vertex growable arrays: the paper's dynamic layout, complete with
  // reallocation churn as edges stream in.
  std::vector<std::vector<VertexId>> adjacency;
  std::vector<std::vector<float>> weight_lists;
  // Deferred-weight mode (AddChunkDeferred on a weighted graph): the global
  // file index of every inserted edge, parallel to `adjacency`, so the
  // weight section — which trails the edge section on disk — can be
  // attached in FinalizeDeferred. Do not mix AddChunk and AddChunkDeferred
  // on a weighted builder: the two modes track weights differently.
  std::vector<std::vector<EdgeIndex>> weight_index_lists;
  StripedLocks locks{1 << 14};
};

DynamicAdjacencyBuilder::DynamicAdjacencyBuilder(VertexId num_vertices, EdgeDirection direction,
                                                 bool weighted)
    : impl_(new Impl{num_vertices, direction, weighted,
                     std::vector<std::vector<VertexId>>(num_vertices),
                     weighted ? std::vector<std::vector<float>>(num_vertices)
                              : std::vector<std::vector<float>>(),
                     {}}) {}

DynamicAdjacencyBuilder::~DynamicAdjacencyBuilder() = default;

void DynamicAdjacencyBuilder::AddChunk(std::span<const Edge> edges,
                                       std::span<const float> weights) {
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.dynamic.add",
                                  static_cast<int64_t>(edges.size()));
  Impl& impl = *impl_;
  ParallelFor(0, static_cast<int64_t>(edges.size()), [&](int64_t i) {
    const Edge& e = edges[static_cast<size_t>(i)];
    const VertexId v = KeyOf(e, impl.direction);
    SpinlockGuard guard(impl.locks.For(v));
    impl.adjacency[v].push_back(ValueOf(e, impl.direction));
    if (impl.weighted) {
      impl.weight_lists[v].push_back(weights.empty() ? 1.0f
                                                     : weights[static_cast<size_t>(i)]);
    }
  });
  build_seconds_ += timer.Seconds();
}

void DynamicAdjacencyBuilder::AddChunkDeferred(std::span<const Edge> edges,
                                               EdgeIndex first_edge_index) {
  Impl& impl = *impl_;
  if (!impl.weighted) {
    AddChunk(edges, {});
    return;
  }
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.dynamic.add",
                                  static_cast<int64_t>(edges.size()));
  if (impl.weight_index_lists.empty()) {
    impl.weight_index_lists.resize(impl.num_vertices);
  }
  ParallelFor(0, static_cast<int64_t>(edges.size()), [&](int64_t i) {
    const Edge& e = edges[static_cast<size_t>(i)];
    const VertexId v = KeyOf(e, impl.direction);
    SpinlockGuard guard(impl.locks.For(v));
    impl.adjacency[v].push_back(ValueOf(e, impl.direction));
    impl.weight_index_lists[v].push_back(first_edge_index + static_cast<EdgeIndex>(i));
  });
  build_seconds_ += timer.Seconds();
}

double DynamicAdjacencyBuilder::build_seconds() const { return build_seconds_; }

Csr DynamicAdjacencyBuilder::Finalize(double* flatten_seconds) {
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.dynamic.flatten");
  Impl& impl = *impl_;
  const VertexId n = impl.num_vertices;
  std::vector<EdgeIndex> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + impl.adjacency[v].size();
  }
  const EdgeIndex m = offsets[n];
  std::vector<VertexId> neighbors(m);
  std::vector<float> weights;
  if (impl.weighted) {
    weights.resize(m);
  }
  ParallelFor(0, static_cast<int64_t>(n), [&](int64_t v) {
    const EdgeIndex base = offsets[static_cast<size_t>(v)];
    const auto& list = impl.adjacency[static_cast<size_t>(v)];
    if (list.empty()) {
      return;  // memcpy's pointers must be non-null even for zero bytes
    }
    std::memcpy(neighbors.data() + base, list.data(), list.size() * sizeof(VertexId));
    if (impl.weighted) {
      const auto& wl = impl.weight_lists[static_cast<size_t>(v)];
      std::memcpy(weights.data() + base, wl.data(), wl.size() * sizeof(float));
    }
  });
  Csr csr;
  csr.Init(n, std::move(offsets), std::move(neighbors), std::move(weights));
  if (flatten_seconds != nullptr) {
    *flatten_seconds = timer.Seconds();
  }
  return csr;
}

Csr DynamicAdjacencyBuilder::FinalizeDeferred(std::span<const float> file_weights,
                                              double* flatten_seconds) {
  Impl& impl = *impl_;
  if (impl.weighted && !impl.weight_index_lists.empty()) {
    // Resolve the recorded file indices against the now-complete weight
    // section before the regular flatten.
    Timer timer;
    ParallelFor(0, static_cast<int64_t>(impl.num_vertices), [&](int64_t v) {
      const auto& indices = impl.weight_index_lists[static_cast<size_t>(v)];
      auto& weights = impl.weight_lists[static_cast<size_t>(v)];
      weights.resize(indices.size());
      for (size_t j = 0; j < indices.size(); ++j) {
        weights[j] = indices[j] < file_weights.size()
                         ? file_weights[static_cast<size_t>(indices[j])]
                         : 1.0f;
      }
    });
    impl.weight_index_lists.clear();
    impl.weight_index_lists.shrink_to_fit();
    build_seconds_ += timer.Seconds();
  }
  return Finalize(flatten_seconds);
}

// ---------------------------------------------------------------------------
// CountingAdjacencyBuilder

CountingAdjacencyBuilder::CountingAdjacencyBuilder(VertexId num_vertices,
                                                   EdgeDirection direction)
    : num_vertices_(num_vertices), direction_(direction), degrees_(num_vertices, 0) {}

void CountingAdjacencyBuilder::CountChunk(std::span<const Edge> edges) {
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.count.count",
                                  static_cast<int64_t>(edges.size()));
  CountEdgeKeys(edges, direction_ == EdgeDirection::kOut ? &Edge::src : &Edge::dst, degrees_);
  count_seconds_ += timer.Seconds();
}

double CountingAdjacencyBuilder::count_seconds() const { return count_seconds_; }

Csr CountingAdjacencyBuilder::Scatter(const EdgeList& graph, double* scatter_seconds) {
  Timer timer;
  obs::TimelineSpan timeline_span("layout", "build.count.scatter",
                                  static_cast<int64_t>(graph.edges().size()));
  const VertexId n = num_vertices_;
  std::vector<EdgeIndex> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degrees_[v];
  }
  std::vector<std::atomic<EdgeIndex>> cursors(n);
  ParallelFor(0, static_cast<int64_t>(n), [&](int64_t v) {
    cursors[static_cast<size_t>(v)].store(offsets[static_cast<size_t>(v)],
                                          std::memory_order_relaxed);
  });
  const auto& edges = graph.edges();
  std::vector<VertexId> neighbors(edges.size());
  std::vector<float> weights;
  if (graph.has_weights()) {
    weights.resize(edges.size());
  }
  ParallelFor(0, static_cast<int64_t>(edges.size()), [&](int64_t i) {
    const Edge& e = edges[static_cast<size_t>(i)];
    const VertexId v = KeyOf(e, direction_);
    const EdgeIndex slot =
        cursors[static_cast<size_t>(v)].fetch_add(1, std::memory_order_relaxed);
    neighbors[slot] = ValueOf(e, direction_);
    if (!weights.empty()) {
      weights[slot] = graph.weights()[static_cast<size_t>(i)];
    }
  });
  Csr csr;
  csr.Init(n, std::move(offsets), std::move(neighbors), std::move(weights));
  if (scatter_seconds != nullptr) {
    *scatter_seconds = timer.Seconds();
  }
  return csr;
}

// ---------------------------------------------------------------------------

Csr BuildCsr(const EdgeList& graph, EdgeDirection direction, BuildMethod method,
             BuildStats* stats, int digit_bits) {
  double seconds = 0.0;
  Csr csr;
  switch (method) {
    case BuildMethod::kRadixSort:
      csr = BuildRadix(graph, direction, digit_bits, &seconds);
      break;
    case BuildMethod::kCountSort: {
      CountingAdjacencyBuilder builder(graph.num_vertices(), direction);
      builder.CountChunk(graph.edges());
      double scatter = 0.0;
      csr = builder.Scatter(graph, &scatter);
      seconds = builder.count_seconds() + scatter;
      break;
    }
    case BuildMethod::kDynamic: {
      DynamicAdjacencyBuilder builder(graph.num_vertices(), direction, graph.has_weights());
      builder.AddChunk(graph.edges(), graph.weights());
      double flatten = 0.0;
      csr = builder.Finalize(&flatten);
      // Flattening is not part of the paper's dynamic layout (per-vertex
      // arrays are used as-is); it is excluded from the reported time.
      seconds = builder.build_seconds();
      break;
    }
  }
  if (stats != nullptr) {
    stats->seconds = seconds;
  }
  obs::Registry::Get()
      .GetCounter(std::string("build.csr.") + BuildMethodName(method))
      .Add(1);
  return csr;
}

AdjacencyPair BuildCsrPair(const EdgeList& graph, BuildMethod method, int digit_bits) {
  AdjacencyPair pair;
  BuildStats out_stats;
  BuildStats in_stats;
  pair.out = BuildCsr(graph, EdgeDirection::kOut, method, &out_stats, digit_bits);
  pair.in = BuildCsr(graph, EdgeDirection::kIn, method, &in_stats, digit_bits);
  pair.seconds = out_stats.seconds + in_stats.seconds;
  return pair;
}

}  // namespace egraph
