// Compressed CSR tests: decode must reproduce the sorted adjacency exactly
// across graph families; power-law graphs must actually compress.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/execution_context.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr_builder.h"
#include "src/layout/reorder.h"

namespace egraph {
namespace {

void ExpectDecodesTo(const CompressedCsr& compressed, const Csr& csr) {
  ASSERT_EQ(compressed.num_vertices(), csr.num_vertices());
  ASSERT_EQ(compressed.num_edges(), csr.num_edges());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    auto span = csr.Neighbors(v);
    std::vector<VertexId> expected(span.begin(), span.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(compressed.Neighbors(v), expected) << "vertex " << v;
    EXPECT_EQ(compressed.Degree(v), expected.size()) << "vertex " << v;
  }
}

class CompressedCsrFamilyTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedCsrFamilyTest, DecodeMatchesSortedCsr) {
  EdgeList graph;
  switch (GetParam()) {
    case 0: {
      RmatOptions options;
      options.scale = 10;
      graph = GenerateRmat(options);
      break;
    }
    case 1: {
      ErdosRenyiOptions options;
      options.num_vertices = 1000;
      options.num_edges = 20000;
      graph = GenerateErdosRenyi(options);
      break;
    }
    case 2: {
      RoadOptions options;
      options.width = 32;
      options.height = 32;
      graph = GenerateRoad(options);
      break;
    }
    default: {
      graph.set_num_vertices(8);  // empty graph
      break;
    }
  }
  const Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  double seconds = 0.0;
  const CompressedCsr compressed =
      CompressedCsr::Build(graph, EdgeDirection::kOut, &seconds);
  EXPECT_GE(seconds, 0.0);
  ExpectDecodesTo(compressed, csr);
}

std::string FamilyParamName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"rmat", "uniform", "road", "empty"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Families, CompressedCsrFamilyTest, ::testing::Values(0, 1, 2, 3),
                         FamilyParamName);

TEST(CompressedCsr, SelfLoopAndDuplicateNeighbors) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(2, 2);  // self loop: first delta is zero
  graph.AddEdge(2, 1);  // negative first delta when sorted ([1, 2, 2, 3])
  graph.AddEdge(2, 2);  // duplicate: zero delta mid-stream
  graph.AddEdge(2, 3);
  const CompressedCsr compressed = CompressedCsr::Build(graph, EdgeDirection::kOut);
  EXPECT_EQ(compressed.Neighbors(2), (std::vector<VertexId>{1, 2, 2, 3}));
}

// Degrees straddling the chunk threshold: ce-1, ce, ce+1, 2*ce, plus empty
// and degree-1 vertices. With chunk_edges=4 every boundary case is hit.
TEST(CompressedCsr, ChunkBoundaryRoundTrip) {
  constexpr uint32_t kChunkEdges = 4;
  const std::vector<uint32_t> degrees = {0, 1, 3, 4, 5, 8, 0, 9};
  EdgeList graph;
  graph.set_num_vertices(16);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    for (uint32_t i = 0; i < degrees[v]; ++i) {
      graph.AddEdge(v, (v * 7 + i * 3) % 16);  // scattered, unsorted targets
    }
  }
  const Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kCountSort);
  const CompressedCsr compressed =
      CompressedCsr::Build(graph, EdgeDirection::kOut, nullptr, kChunkEdges);
  ASSERT_TRUE(compressed.Validate());
  ExpectDecodesTo(compressed, csr);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    EXPECT_EQ(compressed.NumChunksOf(v), (degrees[v] + kChunkEdges - 1) / kChunkEdges)
        << "vertex " << v;
  }
}

// A mega hub splits into many chunks; every chunk re-anchors at the owner,
// so the whole list must still decode in sorted order, and each chunk must
// decode on its own to exactly its slice of the full list.
TEST(CompressedCsr, MegaHubSplitsAndSlices) {
  constexpr uint32_t kChunkEdges = 8;
  const VertexId leaves = 1000;
  EdgeList graph(leaves + 1, {});
  for (VertexId v = 1; v <= leaves; ++v) {
    graph.AddEdge(0, ((v * 37) % leaves) + 1);  // scattered insertion order
  }
  const CompressedCsr compressed =
      CompressedCsr::Build(graph, EdgeDirection::kOut, nullptr, kChunkEdges);
  ASSERT_TRUE(compressed.Validate());
  EXPECT_EQ(compressed.NumChunksOf(0), (leaves + kChunkEdges - 1) / kChunkEdges);
  const std::vector<VertexId> full = compressed.Neighbors(0);
  ASSERT_EQ(full.size(), leaves);
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
  for (uint32_t k = 0; k < compressed.NumChunksOf(0); ++k) {
    std::vector<VertexId> chunk;
    EXPECT_TRUE(compressed.DecodeChunkWhile(0, k, [&chunk](VertexId n, float) {
      chunk.push_back(n);
      return true;
    }));
    const size_t lo = static_cast<size_t>(k) * kChunkEdges;
    ASSERT_EQ(chunk.size(), compressed.ChunkSizeOf(0, k)) << "chunk " << k;
    EXPECT_EQ(chunk, std::vector<VertexId>(full.begin() + static_cast<long>(lo),
                                           full.begin() + static_cast<long>(lo + chunk.size())))
        << "chunk " << k;
  }
}

// Weighted graphs must round-trip their weights bit-exactly through the
// interleaved varint stream, permuted alongside the sorted neighbors.
TEST(CompressedCsr, WeightedRoundTripIsBitExact) {
  RmatOptions options;
  options.scale = 8;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 3.0f, 99);
  const Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  const CompressedCsr compressed = CompressedCsr::Build(graph, EdgeDirection::kOut);
  ASSERT_TRUE(compressed.has_weights());
  ASSERT_TRUE(compressed.Validate());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    auto span = csr.Neighbors(v);
    auto weights = csr.Weights(v);
    ASSERT_EQ(span.size(), weights.size());
    std::vector<std::pair<VertexId, float>> expected;
    for (size_t i = 0; i < span.size(); ++i) {
      expected.emplace_back(span[i], weights[i]);
    }
    const std::vector<VertexId> got_n = compressed.Neighbors(v);
    const std::vector<float> got_w = compressed.NeighborWeights(v);
    ASSERT_EQ(got_n.size(), expected.size()) << "vertex " << v;
    ASSERT_TRUE(std::is_sorted(got_n.begin(), got_n.end())) << "vertex " << v;
    // Multi-edges with equal neighbor ids can land in either order, so the
    // comparison is on (neighbor, weight-bit-pattern) multisets — bit-exact:
    // the stream stores each float's bit pattern verbatim.
    std::vector<std::pair<VertexId, uint32_t>> got;
    for (size_t i = 0; i < got_n.size(); ++i) {
      got.emplace_back(got_n[i], std::bit_cast<uint32_t>(got_w[i]));
    }
    std::vector<std::pair<VertexId, uint32_t>> want;
    for (const auto& [neighbor, weight] : expected) {
      want.emplace_back(neighbor, std::bit_cast<uint32_t>(weight));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "vertex " << v;
  }
}

TEST(CompressedCsr, ValidateAcceptsGoodRejectsCorrupt) {
  RmatOptions options;
  options.scale = 8;
  const EdgeList graph = GenerateRmat(options);
  const CompressedCsr good = CompressedCsr::Build(graph, EdgeDirection::kOut);
  std::string error;
  ASSERT_TRUE(good.Validate(&error)) << error;

  // Corrupt stream: flip a continuation bit mid-stream so some chunk either
  // truncates or overruns its byte span.
  {
    std::vector<uint8_t> bytes = good.stream_bytes();
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x80;
    CompressedCsr bad;
    bad.Init(good.num_vertices(), good.num_edges(), good.has_weights(),
             good.chunk_edges(), good.degrees(), good.chunk_begin(),
             good.chunk_bytes(), std::move(bytes));
    EXPECT_FALSE(bad.Validate(&error));
    EXPECT_FALSE(error.empty());
  }
  // Degree table lies about a vertex: chunk count check must fire.
  {
    std::vector<uint32_t> degrees = good.degrees();
    degrees[0] += good.chunk_edges();  // claims one more chunk than exists
    CompressedCsr bad;
    bad.Init(good.num_vertices(), good.num_edges(), good.has_weights(),
             good.chunk_edges(), std::move(degrees), good.chunk_begin(),
             good.chunk_bytes(), good.stream_bytes());
    EXPECT_FALSE(bad.Validate(&error));
  }
  // Byte table does not span the stream.
  {
    std::vector<uint64_t> chunk_bytes = good.chunk_bytes();
    chunk_bytes.back() += 1;
    CompressedCsr bad;
    bad.Init(good.num_vertices(), good.num_edges(), good.has_weights(),
             good.chunk_edges(), good.degrees(), good.chunk_begin(),
             std::move(chunk_bytes), good.stream_bytes());
    EXPECT_FALSE(bad.Validate(&error));
  }
}

// Adversarial varint: a run of continuation bytes longer than any valid
// 64-bit varint. The unchecked decoder must stop shifting before UB (shift
// capped below 64) and the checked decoder must report failure rather than
// read past the end.
TEST(CompressedCsr, DecodeVarintBoundsCorruptContinuationRun) {
  const std::vector<uint8_t> hostile(16, 0x80);  // never terminates
  const uint8_t* cursor = hostile.data();
  (void)CompressedCsr::DecodeVarint(cursor);
  // Bounded: consumed at most 10 bytes (64/7 rounded up), well inside the
  // buffer — no out-of-bounds read, no UB-range shift.
  EXPECT_LE(cursor - hostile.data(), 10);

  cursor = hostile.data();
  uint64_t value = 0;
  EXPECT_FALSE(CompressedCsr::DecodeVarintChecked(
      cursor, hostile.data() + hostile.size(), &value));

  // Truncated buffer: continuation bit set on the last byte.
  const std::vector<uint8_t> truncated = {0xFF, 0xFF};
  cursor = truncated.data();
  EXPECT_FALSE(CompressedCsr::DecodeVarintChecked(
      cursor, truncated.data() + truncated.size(), &value));

  // A maximal valid varint still decodes.
  const std::vector<uint8_t> max_varint = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                           0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  cursor = max_varint.data();
  ASSERT_TRUE(CompressedCsr::DecodeVarintChecked(
      cursor, max_varint.data() + max_varint.size(), &value));
  EXPECT_EQ(value, UINT64_MAX);
}

// Pool width only changes which worker sorts, sizes and encodes what: all
// four tables must come out bit-identical.
TEST(CompressedCsr, BuildBitIdenticalAtPoolWidths1And4) {
  RmatOptions options;
  options.scale = 11;
  EdgeList weighted = GenerateRmat(options);
  weighted.AssignRandomWeights(0.1f, 3.0f, 5);
  for (const EdgeList& graph : {GenerateRmat(options), weighted}) {
    for (const EdgeDirection direction : {EdgeDirection::kOut, EdgeDirection::kIn}) {
      std::vector<CompressedCsr> built;
      for (const int threads : {1, 4}) {
        ExecutionContextOptions context_options;
        context_options.num_threads = threads;
        ExecutionContext context(context_options);
        ExecutionContext::Scope scope(context);
        built.push_back(CompressedCsr::Build(graph, direction, nullptr, 16));
      }
      ASSERT_TRUE(built[0].Validate());
      EXPECT_EQ(built[0].degrees(), built[1].degrees());
      EXPECT_EQ(built[0].chunk_begin(), built[1].chunk_begin());
      EXPECT_EQ(built[0].chunk_bytes(), built[1].chunk_bytes());
      EXPECT_EQ(built[0].stream_bytes(), built[1].stream_bytes());
    }
  }
}

// The sort is stable and the weight rides in the record, so duplicate
// (vertex, neighbor) pairs decode their weights in input order — also
// across a chunk boundary.
TEST(CompressedCsr, WeightedDuplicatePairsKeepInputOrder) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddWeightedEdge(1, 3, 9.0f);
  graph.AddWeightedEdge(1, 2, 4.0f);
  graph.AddWeightedEdge(0, 2, 7.0f);
  graph.AddWeightedEdge(1, 2, 1.0f);
  graph.AddWeightedEdge(1, 0, 5.0f);
  graph.AddWeightedEdge(1, 2, 3.0f);
  graph.AddWeightedEdge(1, 2, 2.0f);
  for (const uint32_t chunk_edges : {2u, 128u}) {
    const CompressedCsr out =
        CompressedCsr::Build(graph, EdgeDirection::kOut, nullptr, chunk_edges);
    ASSERT_TRUE(out.Validate());
    EXPECT_EQ(out.Neighbors(1), (std::vector<VertexId>{0, 2, 2, 2, 2, 3}));
    EXPECT_EQ(out.NeighborWeights(1), (std::vector<float>{5, 4, 1, 3, 2, 9}));
    const CompressedCsr in =
        CompressedCsr::Build(graph, EdgeDirection::kIn, nullptr, chunk_edges);
    ASSERT_TRUE(in.Validate());
    EXPECT_EQ(in.Neighbors(2), (std::vector<VertexId>{0, 1, 1, 1, 1}));
    EXPECT_EQ(in.NeighborWeights(2), (std::vector<float>{7, 4, 1, 3, 2}));
  }
}

TEST(CompressedCsr, BuildsEmptyAndSingleVertexGraphs) {
  const EdgeList none;  // no vertices at all
  const CompressedCsr empty = CompressedCsr::Build(none, EdgeDirection::kOut);
  EXPECT_TRUE(empty.Validate());
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_chunks(), 0);
  EXPECT_TRUE(empty.stream_bytes().empty());

  EdgeList lone;
  lone.set_num_vertices(1);
  EXPECT_TRUE(CompressedCsr::Build(lone, EdgeDirection::kOut).Validate());
  // Self loops on the one vertex: every sort key is zero.
  lone.AddWeightedEdge(0, 0, 2.0f);
  lone.AddWeightedEdge(0, 0, 1.0f);
  for (const EdgeDirection direction : {EdgeDirection::kOut, EdgeDirection::kIn}) {
    const CompressedCsr single = CompressedCsr::Build(lone, direction);
    ASSERT_TRUE(single.Validate());
    EXPECT_EQ(single.Neighbors(0), (std::vector<VertexId>{0, 0}));
    EXPECT_EQ(single.NeighborWeights(0), (std::vector<float>{2, 1}));
  }
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

template <typename T>
uint64_t Fnv1a(uint64_t hash, const std::vector<T>& table) {
  return Fnv1a(hash, table.data(), table.size() * sizeof(T));
}

// Pins the stream format: the tables of a seeded unweighted R-MAT graph hash
// to the values the earlier CSR-based encoder produced for it, so a format
// change is made on purpose, never by accident.
TEST(CompressedCsr, StreamFormatPinnedByHash) {
  RmatOptions options;
  options.scale = 12;
  const EdgeList graph = GenerateRmat(options);
  const auto hash = [&graph](EdgeDirection direction) {
    const CompressedCsr compressed = CompressedCsr::Build(graph, direction);
    uint64_t h = 14695981039346656037ULL;
    h = Fnv1a(h, compressed.degrees());
    h = Fnv1a(h, compressed.chunk_begin());
    h = Fnv1a(h, compressed.chunk_bytes());
    return Fnv1a(h, compressed.stream_bytes());
  };
  EXPECT_EQ(hash(EdgeDirection::kOut), 0x7a7da104baadd4dcULL);
  EXPECT_EQ(hash(EdgeDirection::kIn), 0xe77d45d71bc80608ULL);
}

TEST(CompressedCsr, LocalNeighborhoodsCompressWell) {
  // Road lattice: neighbors are id-adjacent, so deltas are tiny.
  RoadOptions options;
  options.width = 64;
  options.height = 64;
  const EdgeList graph = GenerateRoad(options);
  const CompressedCsr compressed = CompressedCsr::Build(graph, EdgeDirection::kOut);
  EXPECT_LT(compressed.RatioVsPlain(), 0.9);
}

TEST(CompressedCsr, ReorderingImprovesCompression) {
  // BFS ordering clusters neighbor ids, shrinking deltas — pre-processing
  // (reorder) traded for memory, the paper's central currency.
  RmatOptions options;
  options.scale = 12;
  const EdgeList graph = GenerateRmat(options);
  const CompressedCsr before = CompressedCsr::Build(graph, EdgeDirection::kOut);

  const Reordering reordering = ComputeReordering(graph, ReorderMethod::kBfsOrder);
  const EdgeList relabeled = ApplyReordering(graph, reordering);
  const CompressedCsr after = CompressedCsr::Build(relabeled, EdgeDirection::kOut);

  EXPECT_LT(after.MemoryBytes(), before.MemoryBytes());
}

}  // namespace
}  // namespace egraph
