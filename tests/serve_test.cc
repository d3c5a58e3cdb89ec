// Serve-path differential and concurrency checks: a QuerySession running
// randomized mixed-kind query streams (all four kernels) on four workers
// must reproduce the serial session's result checksums bit-identically
// across graph families — including the mega-hub star, whose single
// adjacency list holds almost every edge — and a 32-query drain at
// concurrency 8 gives TSan the surface to interrogate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/graph_handle.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/serve/query_session.h"
#include "src/util/rng.h"

namespace egraph {
namespace {

using serve::QueryKind;
using serve::QuerySession;
using serve::QuerySessionOptions;
using serve::ServeQuery;
using serve::ServeResult;
using serve::SubmitStatus;

struct ServeGraph {
  std::string name;
  EdgeList edges;  // symmetrized + weighted: one graph serves all four kernels
};

EdgeList MakeMegaHubStar() {
  // One vertex holds ~every edge; the chain off the first leaves keeps BFS
  // multi-round behind the hub's one-round burst.
  const VertexId leaves = (1 << 12) + 3;
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

ServeGraph MakeServeGraph(std::string name, EdgeList edges) {
  ServeGraph g;
  g.name = std::move(name);
  edges.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0x5eed);
  g.edges = edges.MakeUndirected();
  return g;
}

std::vector<ServeGraph>* BuildGraphs() {
  auto* graphs = new std::vector<ServeGraph>();
  RmatOptions rmat;
  rmat.scale = 9;
  graphs->push_back(MakeServeGraph("rmat", GenerateRmat(rmat)));
  graphs->push_back(MakeServeGraph("star", MakeMegaHubStar()));
  ErdosRenyiOptions er;
  er.num_vertices = 1 << 10;
  er.num_edges = 1 << 13;
  er.seed = 13;
  graphs->push_back(MakeServeGraph("uniform", GenerateErdosRenyi(er)));
  return graphs;
}

// Randomized mixed-kind stream: kinds, sources and pagerank iteration counts
// all drawn from one seeded generator, so every (graph, seed) cell exercises
// a different interleaving while staying reproducible.
std::vector<ServeQuery> MakeQueryStream(uint64_t seed, int count, VertexId n) {
  std::vector<ServeQuery> queries;
  uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    ServeQuery query;
    query.id = i;
    query.config.layout = Layout::kAdjacency;
    query.config.direction = Direction::kPush;
    query.config.symmetric_input = true;
    switch (SplitMix64(state) % 4) {
      case 0:
        query.kind = QueryKind::kBfs;
        break;
      case 1:
        query.kind = QueryKind::kSssp;
        break;
      case 2:
        query.kind = QueryKind::kPagerank;
        query.config.direction = Direction::kPull;
        query.iterations = 3 + static_cast<int>(SplitMix64(state) % 4);
        break;
      default:
        query.kind = QueryKind::kWcc;
        break;
    }
    query.source = static_cast<VertexId>(SplitMix64(state) % n);
    queries.push_back(query);
  }
  return queries;
}

std::vector<ServeResult> RunSession(GraphHandle& handle,
                                    const std::vector<ServeQuery>& queries,
                                    const QuerySessionOptions& options) {
  QuerySession session(handle, options);
  for (const ServeQuery& query : queries) {
    EXPECT_EQ(session.Submit(query), SubmitStatus::kAccepted);
  }
  return session.Drain();
}

void ExpectSameResults(const std::vector<ServeResult>& expected,
                       const std::vector<ServeResult>& actual, const std::string& cell) {
  ASSERT_EQ(expected.size(), actual.size()) << cell;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << cell;
    EXPECT_TRUE(actual[i].ok) << cell << ": query " << expected[i].id;
    EXPECT_EQ(expected[i].checksum, actual[i].checksum)
        << cell << ": query " << expected[i].id << " ("
        << serve::QueryKindName(expected[i].kind) << ")";
  }
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (graphs_ == nullptr) {
      graphs_ = BuildGraphs();
    }
  }
  // Shared across tests; intentionally leaked so TearDown order is moot.
  static std::vector<ServeGraph>* graphs_;
};

std::vector<ServeGraph>* ServeTest::graphs_ = nullptr;

// --- Differential matrix: serial session vs four workers -------------------

TEST_F(ServeTest, IsolatedMatchesSerialReference) {
  for (const ServeGraph& g : *graphs_) {
    GraphHandle handle(g.edges);
    for (const uint64_t seed : {11ull, 23ull}) {
      const std::vector<ServeQuery> queries =
          MakeQueryStream(seed, /*count=*/16, g.edges.num_vertices());
      const std::string cell = g.name + " seed " + std::to_string(seed);

      QuerySessionOptions serial;
      serial.concurrency = 1;
      const std::vector<ServeResult> reference = RunSession(handle, queries, serial);
      ASSERT_EQ(reference.size(), queries.size()) << cell;

      QuerySessionOptions isolated;
      isolated.concurrency = 4;
      const std::vector<ServeResult> results = RunSession(handle, queries, isolated);
      ExpectSameResults(reference, results, cell + " isolated");
    }
  }
}

// --- Concurrency: 32-query drain at concurrency 8 under TSan ---------------

TEST_F(ServeTest, ConcurrentDrainIsRaceFree) {
  const ServeGraph& g = (*graphs_)[0];
  GraphHandle handle(g.edges);
  const std::vector<ServeQuery> queries =
      MakeQueryStream(0xabcdef, /*count=*/32, g.edges.num_vertices());

  QuerySessionOptions serial;
  serial.concurrency = 1;
  const std::vector<ServeResult> reference = RunSession(handle, queries, serial);

  // Eight workers, each with a private context, race the shared CSR, the
  // queue and the completion counters.
  QuerySessionOptions options;
  options.concurrency = 8;
  QuerySession session(handle, options);
  for (const ServeQuery& query : queries) {
    ASSERT_EQ(session.Submit(query), SubmitStatus::kAccepted);
  }
  const std::vector<ServeResult> results = session.Drain();
  ExpectSameResults(reference, results, "concurrency-8 drain");
  EXPECT_EQ(session.stats().completed, static_cast<int64_t>(queries.size()));

  // Draining twice is idempotent; submitting after the drain is a distinct,
  // checkable rejection.
  EXPECT_EQ(session.Drain().size(), results.size());
  EXPECT_EQ(session.Submit(queries[0]), SubmitStatus::kClosed);
}

}  // namespace
}  // namespace egraph
