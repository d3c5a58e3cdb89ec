// Adversarial I/O suite: hostile binary inputs (truncated sections, bad
// magic, absurd edge counts, out-of-range endpoints) against the one
// streaming loader under every build method, hostile text inputs (overlong
// lines, negative/overflowing ids, trailing junk), and the weighted kDynamic
// regression (weights must survive the overlapped pipeline).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/gen/rmat.h"
#include "src/io/edge_io.h"
#include "src/io/formats.h"
#include "src/io/loader.h"
#include "src/layout/csr.h"
#include "src/layout/csr_builder.h"

namespace egraph {
namespace {

class IoAdversarialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("egraph_io_adv_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::string WriteText(const std::string& name, const std::string& body) {
    const std::string path = Path(name);
    std::ofstream out(path, std::ios::binary);
    out << body;
    return path;
  }

  std::filesystem::path dir_;
};

EdgeList SampleGraph(bool weighted) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  if (weighted) {
    graph.AssignRandomWeights(0.1f, 2.0f, 7);
  }
  return graph;
}

void TruncateFile(const std::string& path, uint64_t bytes) {
  std::filesystem::resize_file(path, bytes);
}

void CorruptAt(const std::string& path, uint64_t offset, const void* data,
               size_t size) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

LoadBuildOptions ManyChunks(BuildMethod method) {
  LoadBuildOptions options;
  options.method = method;
  options.chunk_bytes = 1u << 14;  // many chunks, so per-chunk checks fire
  return options;
}

// One option set per build method: each overlaps different work with the
// stream, so each must reject hostile input on its own.
std::vector<LoadBuildOptions> AllMethods() {
  std::vector<LoadBuildOptions> variants;
  for (const BuildMethod method :
       {BuildMethod::kDynamic, BuildMethod::kCountSort, BuildMethod::kRadixSort}) {
    variants.push_back(ManyChunks(method));
  }
  return variants;
}

// ---------------------------------------------------------------------------
// Hostile binary files. "Both loaders" are the two entry points onto the one
// streaming reader: LoadAndBuild (under every build method) and LoadEdges.
// ---------------------------------------------------------------------------

TEST_F(IoAdversarialTest, TruncatedHeaderRejectedByBothLoaders) {
  const std::string path = Path("g.bin");
  WriteBinaryEdges(path, SampleGraph(false));
  TruncateFile(path, 10);  // mid-header
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

TEST_F(IoAdversarialTest, TruncatedEdgeSectionRejectedByBothLoaders) {
  const std::string path = Path("g.bin");
  WriteBinaryEdges(path, SampleGraph(false));
  const uint64_t full = std::filesystem::file_size(path);
  TruncateFile(path, sizeof(EdgeFileHeader) + (full - sizeof(EdgeFileHeader)) / 2);
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

TEST_F(IoAdversarialTest, TruncatedWeightSectionRejectedByBothLoaders) {
  const std::string path = Path("g.bin");
  WriteBinaryEdges(path, SampleGraph(true));
  TruncateFile(path, std::filesystem::file_size(path) - 64);  // inside weights
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

TEST_F(IoAdversarialTest, BadMagicRejectedByBothLoaders) {
  const std::string path = Path("g.bin");
  WriteBinaryEdges(path, SampleGraph(false));
  const uint64_t bogus = 0xDEADBEEFDEADBEEFULL;
  CorruptAt(path, 0, &bogus, sizeof(bogus));
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

// A corrupt edge count far larger than the file must fail the size check
// up front, before any buffer is sized from the header.
TEST_F(IoAdversarialTest, AbsurdEdgeCountRejectedWithoutAllocation) {
  const std::string path = Path("g.bin");
  WriteBinaryEdges(path, SampleGraph(false));
  const uint64_t absurd = 1ULL << 60;
  CorruptAt(path, 16, &absurd, sizeof(absurd));  // num_edges field
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);

  // Overflow bait: num_edges * 12 wraps around uint64 if computed naively.
  const uint64_t wrap = UINT64_MAX / 6;
  CorruptAt(path, 16, &wrap, sizeof(wrap));
  uint32_t weighted_flags = 1;
  CorruptAt(path, 12, &weighted_flags, sizeof(weighted_flags));
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);

  // A bare header claiming 2^61 unweighted edges: 2^61 * 8 wraps to 0, which
  // a naive check would accept against the 24-byte file.
  const uint64_t wrap_to_zero = 1ULL << 61;
  const uint32_t unweighted_flags = 0;
  CorruptAt(path, 16, &wrap_to_zero, sizeof(wrap_to_zero));
  CorruptAt(path, 12, &unweighted_flags, sizeof(unweighted_flags));
  TruncateFile(path, sizeof(EdgeFileHeader));
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

// An endpoint >= num_vertices must be caught by per-chunk validation under
// every build method — otherwise it drives an out-of-bounds scatter inside
// the builders.
TEST_F(IoAdversarialTest, OutOfRangeEndpointRejectedPerChunk) {
  const EdgeList graph = SampleGraph(false);
  const std::string path = Path("g.bin");
  WriteBinaryEdges(path, graph);
  // Corrupt an edge near the end of the edge section (a late chunk).
  const uint64_t last_edge_offset =
      sizeof(EdgeFileHeader) + (graph.num_edges() - 2) * sizeof(Edge);
  const uint32_t out_of_range = graph.num_vertices() + 1000;
  CorruptAt(path, last_edge_offset, &out_of_range, sizeof(out_of_range));
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

TEST_F(IoAdversarialTest, EmptyFileRejected) {
  const std::string path = WriteText("empty.bin", "");
  for (const auto& options : AllMethods()) {
    EXPECT_THROW(LoadAndBuild(path, options), std::runtime_error);
  }
  EXPECT_THROW(LoadEdges(path, kMediumMemory), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hostile text files
// ---------------------------------------------------------------------------

// Lines longer than any fixed buffer must parse whole. A fixed-size fgets
// loop splits such a line and either errors or, worse, parses the tail as a
// fresh edge; the shard parser must do neither.
TEST_F(IoAdversarialTest, OverlongLinesParseWhole) {
  std::string body;
  body += "# " + std::string(4096, 'x') + " 5 7\n";  // comment hiding "5 7"
  body += "0" + std::string(2048, ' ') + "1\n";      // edge with huge padding
  body += "2 3\n";
  const EdgeList graph = ReadTextEdges(WriteText("long.txt", body));
  ASSERT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(graph.edges()[1], (Edge{2, 3}));
}

TEST_F(IoAdversarialTest, NegativeIdsRejected) {
  EXPECT_THROW(ReadTextEdges(WriteText("neg.txt", "0 1\n-1 2\n")),
               std::runtime_error);
  EXPECT_THROW(ReadTextEdges(WriteText("neg2.txt", "3 -4\n")),
               std::runtime_error);
}

TEST_F(IoAdversarialTest, OverflowingIdsRejected) {
  // > UINT32_MAX must not silently wrap.
  EXPECT_THROW(ReadTextEdges(WriteText("ovf.txt", "99999999999 3\n")),
               std::runtime_error);
  EXPECT_THROW(ReadTextEdges(WriteText("ovf2.txt", "1 4294967296\n")),
               std::runtime_error);
  // UINT32_MAX itself is kInvalidVertex: as an endpoint, the vertex count
  // max + 1 wraps to 0 and the graph loads as 0 vertices with edges.
  for (const char* body : {"4294967295 0\n0 1\n", "0 4294967295\n0 1\n"}) {
    const std::string path = WriteText("invalid.txt", body);
    EXPECT_THROW(ReadTextEdges(path), std::runtime_error) << body;
    EXPECT_THROW(ReadSnapEdges(path), std::runtime_error) << body;
  }
}

TEST_F(IoAdversarialTest, TrailingJunkRejected) {
  EXPECT_THROW(ReadTextEdges(WriteText("junk.txt", "1 2 extra\n")),
               std::runtime_error);
  EXPECT_THROW(ReadTextEdges(WriteText("junk2.txt", "1 2 3.5 junk\n")),
               std::runtime_error);
  EXPECT_THROW(ReadTextEdges(WriteText("junk3.txt", "1x 2\n")),
               std::runtime_error);
}

TEST_F(IoAdversarialTest, MissingFinalNewlineParses) {
  const EdgeList graph = ReadTextEdges(WriteText("nonl.txt", "0 1\n2 3"));
  ASSERT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.edges()[1], (Edge{2, 3}));
}

TEST_F(IoAdversarialTest, MixedWeightedUnweightedRejected) {
  EXPECT_THROW(ReadTextEdges(WriteText("mixed.txt", "0 1 2.5\n2 3\n")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Weighted kDynamic regression: before the deferred-weight fix the dynamic
// pipeline silently attached unit weights (the weight section trails all
// edges on disk, so weights were unknown at insertion time).
// ---------------------------------------------------------------------------

// Sorted (neighbor, weight) pairs: a multiset compare. Duplicate (src, dst)
// edges with different weights land in scatter order once more than one
// thread builds, so neither the list order nor the order among equal
// neighbors may enter the comparison.
using NeighborWeights = std::vector<std::pair<VertexId, float>>;

NeighborWeights VertexPairs(const Csr& csr, VertexId v) {
  NeighborWeights pairs;
  const auto neighbors = csr.Neighbors(v);
  const auto weights = csr.Weights(v);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    pairs.emplace_back(neighbors[i], weights.empty() ? 1.0f : weights[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST_F(IoAdversarialTest, WeightedDynamicLoadPreservesWeights) {
  const EdgeList graph = SampleGraph(true);
  const std::string path = Path("w.bin");
  WriteBinaryEdges(path, graph);

  // Reference CSR from the in-memory edge list (radix: deterministic, no
  // streaming involved).
  const Csr reference = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);

  const LoadBuildResult result = LoadAndBuild(path, ManyChunks(BuildMethod::kDynamic));
  ASSERT_TRUE(result.out.has_weights());
  ASSERT_EQ(result.out.num_edges(), reference.num_edges());
  bool any_nonunit = false;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(VertexPairs(result.out, v), VertexPairs(reference, v)) << "vertex " << v;
    for (const float w : result.out.Weights(v)) {
      any_nonunit |= (w != 1.0f);
    }
  }
  // The old bug produced all-1.0 weights; the file's weights are random in
  // [0.1, 2.0), so a correct load must contain non-unit values.
  EXPECT_TRUE(any_nonunit);
}

TEST_F(IoAdversarialTest, WeightedDynamicInCsrPreservesWeights) {
  const EdgeList graph = SampleGraph(true);
  const std::string path = Path("w.bin");
  WriteBinaryEdges(path, graph);
  const Csr reference = BuildCsr(graph, EdgeDirection::kIn, BuildMethod::kRadixSort);
  LoadBuildOptions options = ManyChunks(BuildMethod::kDynamic);
  options.build_in = true;
  const LoadBuildResult result = LoadAndBuild(path, options);
  ASSERT_TRUE(result.has_in);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(VertexPairs(result.in, v), VertexPairs(reference, v)) << "vertex " << v;
  }
}

}  // namespace
}  // namespace egraph
