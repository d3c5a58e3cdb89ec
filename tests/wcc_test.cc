// WCC correctness: labels must equal the union-find reference (minimum
// vertex id per weakly connected component) under every layout, with or
// without a symmetrized input, at every pool width.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/algos/reference.h"
#include "src/algos/wcc.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/util/rng.h"
#include "tests/edge_order.h"

namespace egraph {
namespace {

EdgeList MultiComponentGraph() {
  // Three components: {0..3} ring, {10..12} chain, {20} isolated-with-loop,
  // plus isolated vertices with no edges.
  EdgeList graph;
  graph.set_num_vertices(25);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  graph.AddEdge(3, 0);
  graph.AddEdge(10, 11);
  graph.AddEdge(12, 11);  // direction against the chain: weak connectivity
  graph.AddEdge(20, 20);
  return graph;
}

TEST(Wcc, EdgeArrayMatchesReferenceWithoutSymmetrization) {
  const EdgeList graph = MultiComponentGraph();
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult result = RunWcc(handle, config);
  EXPECT_EQ(result.label, RefWccLabels(graph));
  // Edge array needed no pre-processing at all (paper Table 6's 0.0 rows).
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

TEST(Wcc, GridMatchesReferenceWithoutSymmetrization) {
  const EdgeList graph = MultiComponentGraph();
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kGrid;
  const WccResult result = RunWcc(handle, config);
  EXPECT_EQ(result.label, RefWccLabels(graph));
}

TEST(Wcc, AdjacencyNeedsSymmetrizedInput) {
  const EdgeList graph = MultiComponentGraph();
  // Adjacency-list WCC runs on the undirected version (paper section 8),
  // doubling CSR construction work — charged as pre-processing.
  GraphHandle handle(graph.MakeUndirected());
  RunConfig config;
  config.layout = Layout::kAdjacency;
  config.direction = Direction::kPush;
  const WccResult result = RunWcc(handle, config);
  EXPECT_EQ(result.label, RefWccLabels(graph));
  EXPECT_GT(handle.preprocess_seconds(), 0.0);
}

TEST(Wcc, RmatAllLayoutsAgree) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  const std::vector<VertexId> expected = RefWccLabels(graph);

  for (const Layout layout : {Layout::kEdgeArray, Layout::kGrid}) {
    GraphHandle handle(graph);
    RunConfig config;
    config.layout = layout;
    EXPECT_EQ(RunWcc(handle, config).label, expected) << LayoutName(layout);
  }
  GraphHandle handle(graph.MakeUndirected());
  RunConfig config;
  config.layout = Layout::kAdjacency;
  EXPECT_EQ(RunWcc(handle, config).label, expected);
}

TEST(Wcc, LabelsAreComponentMinima) {
  ErdosRenyiOptions options;
  options.num_vertices = 2000;
  options.num_edges = 3000;  // sparse: many components
  const EdgeList graph = GenerateErdosRenyi(options);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult result = RunWcc(handle, config);
  // Property: every vertex's label is <= its id, and label[label[v]] ==
  // label[v] (labels are fixed points).
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_LE(result.label[v], v);
    EXPECT_EQ(result.label[result.label[v]], result.label[v]);
  }
  // Endpoint labels agree across every edge.
  for (const Edge& e : graph.edges()) {
    EXPECT_EQ(result.label[e.src], result.label[e.dst]);
  }
}

TEST(Wcc, EmptyGraphTrivialLabels) {
  EdgeList graph;
  graph.set_num_vertices(7);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult result = RunWcc(handle, config);
  for (VertexId v = 0; v < 7; ++v) {
    EXPECT_EQ(result.label[v], v);
  }
}

constexpr Layout kAllLayouts[] = {Layout::kAdjacency, Layout::kCompressed, Layout::kEdgeArray,
                                   Layout::kGrid, Layout::kSharded};
constexpr Direction kAllDirections[] = {Direction::kPush, Direction::kPull, Direction::kPushPull};

std::string ConfigName(const RunConfig& config) {
  return std::string(LayoutName(config.layout)) + "/" + DirectionName(config.direction);
}

VertexId CountComponents(const std::vector<VertexId>& label) {
  VertexId components = 0;
  for (VertexId v = 0; v < label.size(); ++v) {
    components += label[v] == v ? 1 : 0;
  }
  return components;
}

RmatOptions SmallRmat() {
  RmatOptions options;
  options.scale = 10;
  return options;
}

// The union needs each edge once, in either direction, so the lists a
// vertex-centric run prepares (out-lists, or in-lists under pull) are
// enough: no symmetrized input.
TEST(Wcc, VertexCentricLayoutsMatchReferenceOnDirectedInput) {
  for (const EdgeList& graph : {MultiComponentGraph(), GenerateRmat(SmallRmat())}) {
    const std::vector<VertexId> expected = RefWccLabels(graph);
    for (const Layout layout : {Layout::kAdjacency, Layout::kCompressed, Layout::kSharded}) {
      for (const Direction direction : kAllDirections) {
        GraphHandle handle(graph);
        RunConfig config;
        config.layout = layout;
        config.direction = direction;
        EXPECT_EQ(RunWcc(handle, config).label, expected)
            << ConfigName(config) << " on " << graph.num_vertices() << " vertices";
      }
    }
  }
}

// One pass: every stored edge scanned once, and one link per vertex that
// stops being a root, which no schedule changes.
TEST(Wcc, TraceIsOneRoundOfEveryStoredEdge) {
  for (const EdgeList& graph : {MultiComponentGraph(), GenerateRmat(SmallRmat())}) {
    const std::vector<VertexId> expected = RefWccLabels(graph);
    const int64_t links =
        static_cast<int64_t>(graph.num_vertices()) - CountComponents(expected);
    for (const Layout layout : kAllLayouts) {
      for (const Direction direction : kAllDirections) {
        GraphHandle handle(graph);
        RunConfig config;
        config.layout = layout;
        config.direction = direction;
        const WccResult result = RunWcc(handle, config);
        const std::string name = ConfigName(config);
        ASSERT_EQ(result.stats.rounds(), 1) << name;
        const obs::IterationRecord& round = result.stats.trace.iterations[0];
        EXPECT_EQ(round.edges_scanned, static_cast<int64_t>(graph.num_edges())) << name;
        EXPECT_EQ(round.edges_relaxed, links) << name;
        EXPECT_EQ(result.label, expected) << name;
      }
    }
  }
}

// Graphs whose links race: one long path (deep trees, every edge a link),
// a star whose hub sits mid-range (leaves on both sides of it link in
// opposite directions) and many two-vertex components (many roots linking
// at once). The path's and the pairs' vertex ids are shuffled, and every
// edge order is.
std::vector<std::pair<std::string, EdgeList>> RacingGraphs() {
  constexpr VertexId kVertices = VertexId{1} << 16;
  std::vector<VertexId> perm(kVertices);
  for (VertexId v = 0; v < kVertices; ++v) {
    perm[v] = v;
  }
  Xoshiro256 rng(0x77cc);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  EdgeList path(kVertices, {});
  EdgeList star(kVertices, {});
  EdgeList pairs(kVertices, {});
  const VertexId hub = kVertices / 2;
  for (VertexId v = 0; v < kVertices; ++v) {
    if (v + 1 < kVertices) {
      path.AddEdge(perm[v], perm[v + 1]);
    }
    if (v != hub) {
      star.AddEdge(v % 2 == 0 ? hub : v, v % 2 == 0 ? v : hub);
    }
    if (v % 2 == 1) {
      pairs.AddEdge(perm[v - 1], perm[v]);
    }
  }
  return {{"path", Reordered(path, EdgeOrder::kEdge)},
          {"star", Reordered(star, EdgeOrder::kEdge)},
          {"pairs", Reordered(pairs, EdgeOrder::kEdge)}};
}

ExecutionContextOptions Width(int threads) {
  ExecutionContextOptions options;
  options.name = "wcc" + std::to_string(threads);
  options.num_threads = threads;
  return options;
}

TEST(Wcc, LabelsIdenticalAtEveryPoolWidth) {
  ExecutionContext one(Width(1));
  ExecutionContext two(Width(2));
  ExecutionContext four(Width(4));
  ExecutionContext eight(Width(8));
  for (const auto& [name, graph] : RacingGraphs()) {
    const std::vector<VertexId> expected = RefWccLabels(graph);
    for (const Layout layout : kAllLayouts) {
      for (const Direction direction : kAllDirections) {
        GraphHandle handle(graph);
        RunConfig config;
        config.layout = layout;
        config.direction = direction;
        for (ExecutionContext* ctx : {&one, &two, &four, &eight}) {
          ASSERT_EQ(RunWcc(handle, config, *ctx).label, expected)
              << ConfigName(config) << " on " << name << " in " << ctx->name();
        }
      }
    }
  }
}

}  // namespace
}  // namespace egraph
