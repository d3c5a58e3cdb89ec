// Layout tests: all three CSR construction methods must produce equivalent
// adjacency lists on every graph family; the radix sort must be a true sort;
// grids must preserve the edge multiset with correct cell placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "src/graph/stats.h"
#include "src/layout/csr_builder.h"
#include "src/layout/grid.h"
#include "src/layout/radix_sort.h"
#include "src/util/rng.h"
#include "tests/pool_widths.h"

namespace egraph {
namespace {

// --- Graph families for parameterized suites -------------------------------

enum class Family { kRmat, kUniform, kRoad, kTiny, kSelfLoops, kEmpty, kIsolated };

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kRmat:
      return "rmat";
    case Family::kUniform:
      return "uniform";
    case Family::kRoad:
      return "road";
    case Family::kTiny:
      return "tiny";
    case Family::kSelfLoops:
      return "selfloops";
    case Family::kEmpty:
      return "empty";
    case Family::kIsolated:
      return "isolated";
  }
  return "?";
}

EdgeList MakeFamily(Family family) {
  switch (family) {
    case Family::kRmat: {
      RmatOptions options;
      options.scale = 10;
      return GenerateRmat(options);
    }
    case Family::kUniform: {
      ErdosRenyiOptions options;
      options.num_vertices = 700;
      options.num_edges = 9000;
      return GenerateErdosRenyi(options);
    }
    case Family::kRoad: {
      RoadOptions options;
      options.width = 24;
      options.height = 24;
      return GenerateRoad(options);
    }
    case Family::kTiny: {
      EdgeList graph;
      graph.set_num_vertices(4);
      graph.AddEdge(0, 1);
      graph.AddEdge(0, 2);
      graph.AddEdge(2, 3);
      graph.AddEdge(3, 0);
      return graph;
    }
    case Family::kSelfLoops: {
      EdgeList graph;
      graph.set_num_vertices(5);
      graph.AddEdge(0, 0);
      graph.AddEdge(1, 1);
      graph.AddEdge(0, 1);
      graph.AddEdge(4, 4);
      graph.AddEdge(3, 2);
      return graph;
    }
    case Family::kEmpty: {
      EdgeList graph;
      graph.set_num_vertices(16);
      return graph;
    }
    case Family::kIsolated: {
      // Only vertices 100..103 have edges; the rest are isolated.
      EdgeList graph;
      graph.set_num_vertices(4096);
      graph.AddEdge(100, 101);
      graph.AddEdge(101, 102);
      graph.AddEdge(102, 103);
      return graph;
    }
  }
  return {};
}

// Reference adjacency as a sorted multiset per vertex.
std::map<VertexId, std::vector<VertexId>> ReferenceAdjacency(const EdgeList& graph,
                                                             EdgeDirection direction) {
  std::map<VertexId, std::vector<VertexId>> adj;
  for (const Edge& e : graph.edges()) {
    if (direction == EdgeDirection::kOut) {
      adj[e.src].push_back(e.dst);
    } else {
      adj[e.dst].push_back(e.src);
    }
  }
  for (auto& [v, list] : adj) {
    std::sort(list.begin(), list.end());
  }
  return adj;
}

void ExpectCsrMatchesReference(const Csr& csr, const EdgeList& graph,
                               EdgeDirection direction) {
  ASSERT_EQ(csr.num_vertices(), graph.num_vertices());
  ASSERT_EQ(csr.num_edges(), graph.num_edges());
  auto reference = ReferenceAdjacency(graph, direction);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto span = csr.Neighbors(v);
    std::vector<VertexId> got(span.begin(), span.end());
    std::sort(got.begin(), got.end());
    const auto it = reference.find(v);
    if (it == reference.end()) {
      EXPECT_TRUE(got.empty()) << "vertex " << v;
    } else {
      EXPECT_EQ(got, it->second) << "vertex " << v;
    }
  }
  // Offsets must be monotone and bounded.
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_LE(csr.offsets()[v], csr.offsets()[v + 1]);
  }
  EXPECT_EQ(csr.offsets().back(), csr.num_edges());
}

// --- Parameterized: method x direction x family ----------------------------

using BuildParam = std::tuple<BuildMethod, EdgeDirection, Family>;

class CsrBuilderTest : public ::testing::TestWithParam<BuildParam> {};

TEST_P(CsrBuilderTest, MatchesReferenceAdjacency) {
  const auto [method, direction, family] = GetParam();
  const EdgeList graph = MakeFamily(family);
  BuildStats stats;
  const Csr csr = BuildCsr(graph, direction, method, &stats);
  ExpectCsrMatchesReference(csr, graph, direction);
  EXPECT_GE(stats.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CsrBuilderTest,
    ::testing::Combine(::testing::Values(BuildMethod::kDynamic, BuildMethod::kCountSort,
                                         BuildMethod::kRadixSort),
                       ::testing::Values(EdgeDirection::kOut, EdgeDirection::kIn),
                       ::testing::Values(Family::kRmat, Family::kUniform, Family::kRoad,
                                         Family::kTiny, Family::kSelfLoops, Family::kEmpty,
                                         Family::kIsolated)),
    [](const ::testing::TestParamInfo<BuildParam>& info) {
      std::string name = BuildMethodName(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      name += std::get<1>(info.param) == EdgeDirection::kOut ? "_out_" : "_in_";
      name += FamilyName(std::get<2>(info.param));
      return name;
    });

TEST(CsrBuilder, AllMethodsAgreeOnWeightedGraph) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.5f, 2.0f, 7);

  // Weighted equivalence: the (neighbor, weight) multiset per vertex must be
  // identical across methods.
  auto multiset_of = [&](BuildMethod method) {
    const Csr csr = BuildCsr(graph, EdgeDirection::kOut, method);
    std::map<VertexId, std::vector<std::pair<VertexId, float>>> result;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      const auto neighbors = csr.Neighbors(v);
      const auto weights = csr.Weights(v);
      for (size_t j = 0; j < neighbors.size(); ++j) {
        result[v].push_back({neighbors[j], weights[j]});
      }
      std::sort(result[v].begin(), result[v].end());
    }
    return result;
  };
  const auto radix = multiset_of(BuildMethod::kRadixSort);
  EXPECT_EQ(radix, multiset_of(BuildMethod::kCountSort));
  EXPECT_EQ(radix, multiset_of(BuildMethod::kDynamic));
}

TEST(CsrBuilder, BuildCsrPairBuildsBothDirections) {
  const EdgeList graph = MakeFamily(Family::kRmat);
  const AdjacencyPair pair = BuildCsrPair(graph, BuildMethod::kRadixSort);
  ExpectCsrMatchesReference(pair.out, graph, EdgeDirection::kOut);
  ExpectCsrMatchesReference(pair.in, graph, EdgeDirection::kIn);
  EXPECT_GT(pair.seconds, 0.0);
}

TEST(CsrBuilder, IncrementalDynamicMatchesOneShot) {
  const EdgeList graph = MakeFamily(Family::kRmat);
  DynamicAdjacencyBuilder builder(graph.num_vertices(), EdgeDirection::kOut, false);
  // Feed in uneven chunks, as the overlapped loader would.
  const auto& edges = graph.edges();
  size_t cursor = 0;
  size_t chunk = 1;
  while (cursor < edges.size()) {
    const size_t take = std::min(chunk, edges.size() - cursor);
    builder.AddChunk({edges.data() + cursor, take}, {});
    cursor += take;
    chunk = chunk * 3 + 1;
  }
  const Csr csr = builder.Finalize();
  ExpectCsrMatchesReference(csr, graph, EdgeDirection::kOut);
  EXPECT_GT(builder.build_seconds(), 0.0);
}

TEST(CsrBuilder, IncrementalCountingMatchesOneShot) {
  const EdgeList graph = MakeFamily(Family::kUniform);
  CountingAdjacencyBuilder builder(graph.num_vertices(), EdgeDirection::kIn);
  const auto& edges = graph.edges();
  const size_t half = edges.size() / 2;
  builder.CountChunk({edges.data(), half});
  builder.CountChunk({edges.data() + half, edges.size() - half});
  const Csr csr = builder.Scatter(graph);
  ExpectCsrMatchesReference(csr, graph, EdgeDirection::kIn);
}

// --- Radix sort properties --------------------------------------------------

TEST(RadixSort, SortsRandomKeys) {
  std::vector<uint32_t> values(100000);
  Xoshiro256 rng(3);
  for (auto& v : values) {
    v = static_cast<uint32_t>(rng.NextBounded(1u << 20));
  }
  std::vector<uint32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ParallelRadixSort<uint32_t>(values, 20, [](uint32_t v) { return v; }), expected);
}

TEST(RadixSort, DigitWidthSweepAllSort) {
  for (const int digit_bits : {1, 4, 8, 11, 16}) {
    std::vector<uint32_t> values(20000);
    Xoshiro256 rng(digit_bits);
    for (auto& v : values) {
      v = static_cast<uint32_t>(rng.NextBounded(123457));
    }
    std::vector<uint32_t> expected = values;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ParallelRadixSort<uint32_t>(values, RadixKeyBits(123457),
                                          [](uint32_t v) { return v; }, digit_bits),
              expected)
        << "digit_bits=" << digit_bits;
  }
}

TEST(RadixSort, HandlesEdgeCases) {
  auto identity = [](uint32_t v) { return v; };
  const std::vector<uint32_t> empty;
  EXPECT_TRUE(ParallelRadixSort<uint32_t>(empty, 4, identity).empty());

  const std::vector<uint32_t> one{5};
  EXPECT_EQ(ParallelRadixSort<uint32_t>(one, 4, identity), one);

  const std::vector<uint32_t> equal(1000, 7);
  EXPECT_EQ(ParallelRadixSort<uint32_t>(equal, 3, identity), equal);

  // Single-digit key space (the key is narrower than one digit).
  const std::vector<uint32_t> small{3, 1, 2, 0, 3, 1};
  const std::vector<uint32_t> sorted = ParallelRadixSort<uint32_t>(small, 2, identity);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(small, (std::vector<uint32_t>{3, 1, 2, 0, 3, 1}));  // input untouched
}

TEST(RadixSort, PreservesRecordPayload) {
  struct Record {
    uint32_t key;
    uint64_t payload;
  };
  std::vector<Record> records(50000);
  Xoshiro256 rng(4);
  for (auto& r : records) {
    r.key = static_cast<uint32_t>(rng.NextBounded(10000));
    r.payload = (static_cast<uint64_t>(r.key) << 32) | rng.NextBounded(1u << 30);
  }
  const std::vector<Record> sorted = ParallelRadixSort<Record>(
      records, RadixKeyBits(10000), [](const Record& r) { return r.key; });
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                             [](const Record& a, const Record& b) { return a.key < b.key; }));
  // Payloads still belong to their keys.
  for (const Record& r : sorted) {
    EXPECT_EQ(r.payload >> 32, r.key);
  }
}

// A record whose input position rides along, so a comparison against
// std::stable_sort checks stability as well as order.
struct KeyedRecord {
  uint64_t key;
  uint32_t index;
  friend bool operator==(const KeyedRecord&, const KeyedRecord&) = default;
};

std::vector<KeyedRecord> StableSorted(std::vector<KeyedRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const KeyedRecord& a, const KeyedRecord& b) { return a.key < b.key; });
  return records;
}

TEST(RadixSort, KeyWidthsUpTo64Bits) {
  AtPoolWidths({1, 4}, [] {
    for (const int key_bits : {1, 9, 20, 40, 64}) {
      const uint64_t mask = key_bits == 64 ? ~uint64_t{0} : (uint64_t{1} << key_bits) - 1;
      std::vector<KeyedRecord> records(30000);
      Xoshiro256 rng(static_cast<uint64_t>(key_bits));
      for (uint32_t i = 0; i < records.size(); ++i) {
        records[i] = {rng.Next() & mask, i};
      }
      EXPECT_EQ(ParallelRadixSort<KeyedRecord>(records, key_bits,
                                               [](const KeyedRecord& r) { return r.key; }),
                StableSorted(records))
          << "key_bits=" << key_bits;
    }
  });
}

// Every record shares the top digit, so one bucket holds the whole input
// and its scratch slice is the whole input too.
TEST(RadixSort, OneTopBucketScratchIsWholeInput) {
  AtPoolWidths({1, 4}, [] {
    std::vector<KeyedRecord> records(40000);
    Xoshiro256 rng(11);
    for (uint32_t i = 0; i < records.size(); ++i) {
      records[i] = {(uint64_t{0xA5} << 24) | rng.NextBounded(1u << 24), i};
    }
    EXPECT_EQ(ParallelRadixSort<KeyedRecord>(records, 32,
                                             [](const KeyedRecord& r) { return r.key; }),
              StableSorted(records));
  });
}

// Few distinct keys, read through record_at from two parallel arrays (the
// way the builders zip edges with weights): equal keys keep input order.
TEST(RadixSort, StableLikeStdStableSort) {
  AtPoolWidths({1, 4}, [] {
    std::vector<uint64_t> keys(50000);
    Xoshiro256 rng(12);
    for (auto& key : keys) {
      key = rng.NextBounded(300) << 12;  // 300 keys spread over 21 bits
    }
    std::vector<KeyedRecord> records(keys.size());
    for (uint32_t i = 0; i < keys.size(); ++i) {
      records[i] = {keys[i], i};
    }
    const std::vector<KeyedRecord> sorted = ParallelRadixSort<KeyedRecord>(
        keys.size(),
        [&keys](size_t i) { return KeyedRecord{keys[i], static_cast<uint32_t>(i)}; },
        RadixKeyBits(300ull << 12), [](const KeyedRecord& r) { return r.key; });
    EXPECT_EQ(sorted, StableSorted(records));
  });
}

// --- Sorted adjacency (section 5.1) -----------------------------------------

TEST(Csr, SortNeighborListsSortsEverySlice) {
  const EdgeList graph = MakeFamily(Family::kRmat);
  Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kCountSort);
  // Count sort preserves input order, which is not sorted for R-MAT.
  EXPECT_FALSE(csr.NeighborListsSorted());
  const double seconds = csr.SortNeighborLists();
  EXPECT_GE(seconds, 0.0);
  EXPECT_TRUE(csr.NeighborListsSorted());
  ExpectCsrMatchesReference(csr, graph, EdgeDirection::kOut);
}

TEST(Csr, SortNeighborListsKeepsWeightsPaired) {
  EdgeList graph;
  graph.set_num_vertices(2);
  graph.AddWeightedEdge(0, 1, 10.0f);
  graph.AddWeightedEdge(0, 0, 5.0f);
  Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kDynamic);
  csr.SortNeighborLists();
  const auto neighbors = csr.Neighbors(0);
  const auto weights = csr.Weights(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0], 0u);
  EXPECT_FLOAT_EQ(weights[0], 5.0f);
  EXPECT_EQ(neighbors[1], 1u);
  EXPECT_FLOAT_EQ(weights[1], 10.0f);
}

// --- Grid -------------------------------------------------------------------

class GridBuilderTest : public ::testing::TestWithParam<BuildMethod> {};

TEST_P(GridBuilderTest, PreservesEdgesWithCorrectCellPlacement) {
  const EdgeList graph = MakeFamily(Family::kRmat);
  GridOptions options;
  options.num_blocks = 16;
  options.method = GetParam();
  BuildStats stats;
  const Grid grid = BuildGrid(graph, options, &stats);
  EXPECT_EQ(grid.num_edges(), graph.num_edges());
  EXPECT_EQ(grid.num_vertices(), graph.num_vertices());

  // Every edge sits in the cell of its endpoint blocks.
  uint64_t seen = 0;
  for (uint32_t i = 0; i < grid.num_blocks(); ++i) {
    for (uint32_t j = 0; j < grid.num_blocks(); ++j) {
      for (const Edge& e : grid.Cell(i, j)) {
        ASSERT_EQ(grid.BlockOf(e.src), i);
        ASSERT_EQ(grid.BlockOf(e.dst), j);
        ++seen;
      }
    }
  }
  EXPECT_EQ(seen, graph.num_edges());

  // Edge multiset is preserved.
  auto sorted_edges = [](std::vector<Edge> edges) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
    });
    return edges;
  };
  EXPECT_EQ(sorted_edges(grid.edges()), sorted_edges(graph.edges()));
}

INSTANTIATE_TEST_SUITE_P(Methods, GridBuilderTest,
                         ::testing::Values(BuildMethod::kRadixSort, BuildMethod::kDynamic),
                         [](const ::testing::TestParamInfo<BuildMethod>& info) {
                           std::string name = BuildMethodName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Grid, WeightsTravelWithEdges) {
  EdgeList graph;
  graph.set_num_vertices(64);
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(64));
    const VertexId d = static_cast<VertexId>(rng.NextBounded(64));
    graph.AddWeightedEdge(s, d, static_cast<float>(s * 1000 + d));
  }
  GridOptions options;
  options.num_blocks = 4;
  const Grid grid = BuildGrid(graph, options);
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      const auto cell = grid.Cell(i, j);
      const auto weights = grid.CellWeights(i, j);
      ASSERT_EQ(cell.size(), weights.size());
      for (size_t k = 0; k < cell.size(); ++k) {
        EXPECT_FLOAT_EQ(weights[k], static_cast<float>(cell[k].src * 1000 + cell[k].dst));
      }
    }
  }
}

TEST(Grid, EmptyGraph) {
  EdgeList graph;
  graph.set_num_vertices(100);
  GridOptions options;
  options.num_blocks = 8;
  const Grid grid = BuildGrid(graph, options);
  EXPECT_EQ(grid.num_edges(), 0u);
  for (uint32_t i = 0; i < 8; ++i) {
    for (uint32_t j = 0; j < 8; ++j) {
      EXPECT_TRUE(grid.Cell(i, j).empty());
    }
  }
}

// The column-owned scan dispatches columns in this order, fixed when the
// grid is built: every destination block once, by descending edge count,
// ties by block index.
TEST(Grid, ColumnOrderIsHeaviestFirst) {
  const EdgeList graph = MakeFamily(Family::kRmat);
  GridOptions options;
  options.num_blocks = 16;
  const Grid grid = BuildGrid(graph, options);
  std::vector<uint64_t> column_edges(16, 0);
  for (const Edge& e : graph.edges()) {
    ++column_edges[grid.BlockOf(e.dst)];
  }
  const std::vector<uint32_t>& order = grid.column_order();
  ASSERT_EQ(order.size(), 16u);
  for (size_t k = 0; k < order.size(); ++k) {
    ASSERT_LT(order[k], 16u);
    if (k > 0) {
      const uint64_t before = column_edges[order[k - 1]];
      const uint64_t here = column_edges[order[k]];
      EXPECT_TRUE(before > here || (before == here && order[k - 1] < order[k]))
          << "position " << k;
    }
  }
}

TEST(Grid, BlockSizeCoversAllVertices) {
  EdgeList graph;
  graph.set_num_vertices(1000);  // not divisible by 16
  graph.AddEdge(999, 0);
  GridOptions options;
  options.num_blocks = 16;
  const Grid grid = BuildGrid(graph, options);
  EXPECT_LT(grid.BlockOf(999), 16u);
  EXPECT_EQ(grid.Cell(grid.BlockOf(999), 0).size(), 1u);
}

TEST(MemoryAccounting, CsrAndGridReportBytes) {
  const EdgeList graph = MakeFamily(Family::kTiny);
  const Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  EXPECT_GT(csr.MemoryBytes(), 0u);
  GridOptions options;
  options.num_blocks = 2;
  const Grid grid = BuildGrid(graph, options);
  EXPECT_GT(grid.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace egraph
