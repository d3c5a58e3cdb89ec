// Adversarial I/O suite: hostile binary inputs (truncated sections, bad
// magic, absurd edge counts, out-of-range endpoints) against the one
// streaming loader under every build method, hostile text inputs (overlong
// lines, negative/overflowing ids, trailing junk), the weighted kDynamic
// regression (weights must survive the overlapped pipeline), and hostile
// compressed files.
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
#include "src/io/compressed_io.h"
#include "src/io/edge_io.h"
#include "src/io/loader.h"
#include "src/layout/compressed_csr.h"
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

// ---------------------------------------------------------------------------
// Compressed graph files ("EGCMPR01"): hostile headers and streams, plus the
// selective loader's decode-only-what-you-ask-for guarantee.
// ---------------------------------------------------------------------------

CompressedCsr SampleCompressed(bool weighted) {
  const EdgeList graph = SampleGraph(weighted);
  return CompressedCsr::Build(graph, EdgeDirection::kOut);
}

TEST_F(IoAdversarialTest, CompressedFileRoundTrip) {
  for (const bool weighted : {false, true}) {
    const CompressedCsr original = SampleCompressed(weighted);
    const std::string path = Path(weighted ? "cw.egc" : "c.egc");
    WriteCompressedCsr(path, original);

    const CompressedFileHeader header = ReadCompressedFileHeader(path);
    EXPECT_EQ(header.num_vertices, original.num_vertices());
    EXPECT_EQ(header.num_edges, static_cast<uint64_t>(original.num_edges()));
    EXPECT_EQ(header.has_weights(), weighted);

    const CompressedCsr loaded = ReadCompressedCsr(path);
    ASSERT_EQ(loaded.degrees(), original.degrees());
    ASSERT_EQ(loaded.chunk_begin(), original.chunk_begin());
    ASSERT_EQ(loaded.chunk_bytes(), original.chunk_bytes());
    ASSERT_EQ(loaded.stream_bytes(), original.stream_bytes());
    for (VertexId v = 0; v < original.num_vertices(); v += 37) {
      EXPECT_EQ(loaded.Neighbors(v), original.Neighbors(v)) << "vertex " << v;
    }
  }
}

TEST_F(IoAdversarialTest, CompressedBadMagicRejected) {
  const std::string path = Path("c.egc");
  WriteCompressedCsr(path, SampleCompressed(false));
  const uint64_t bogus = 0xDEADBEEFDEADBEEFULL;
  CorruptAt(path, 0, &bogus, sizeof(bogus));
  EXPECT_THROW(ReadCompressedCsr(path), std::runtime_error);
  EXPECT_THROW(ReadCompressedFileHeader(path), std::runtime_error);
  EXPECT_THROW(SelectiveCompressedLoader loader(path), std::runtime_error);
}

TEST_F(IoAdversarialTest, CompressedTruncationRejected) {
  const std::string path = Path("c.egc");
  WriteCompressedCsr(path, SampleCompressed(true));
  const uint64_t full = std::filesystem::file_size(path);
  // Inside the varint stream, inside the chunk tables, and mid-header: the
  // size check must fire before any section is read.
  for (const uint64_t bytes : {full - 16, sizeof(CompressedFileHeader) + 32,
                               static_cast<uint64_t>(10)}) {
    const std::string copy = Path("trunc.egc");
    std::filesystem::copy_file(path, copy,
                               std::filesystem::copy_options::overwrite_existing);
    TruncateFile(copy, bytes);
    EXPECT_THROW(ReadCompressedCsr(copy), std::runtime_error) << bytes;
    EXPECT_THROW(SelectiveCompressedLoader loader(copy), std::runtime_error) << bytes;
  }
}

// A corrupt chunk count far larger than the file must fail the up-front size
// check — the u32 chunk-index space bounds it before any table allocation.
TEST_F(IoAdversarialTest, CompressedAbsurdChunkCountRejected) {
  const std::string path = Path("c.egc");
  WriteCompressedCsr(path, SampleCompressed(false));
  const uint64_t absurd = 1ULL << 60;
  CorruptAt(path, 24, &absurd, sizeof(absurd));  // num_chunks field
  EXPECT_THROW(ReadCompressedCsr(path), std::runtime_error);
  EXPECT_THROW(SelectiveCompressedLoader loader(path), std::runtime_error);
}

// Setting the continuation bit on the final stream byte makes the last
// chunk's varint run past its byte span: full reads and selective loads of
// that range must throw, while ranges before the corruption still decode.
TEST_F(IoAdversarialTest, CompressedCorruptStreamRejectedOnlyWhereDecoded) {
  const CompressedCsr original = SampleCompressed(false);
  const std::string path = Path("c.egc");
  WriteCompressedCsr(path, original);
  const uint64_t full = std::filesystem::file_size(path);
  const uint8_t overrun = 0x80;
  CorruptAt(path, full - 1, &overrun, sizeof(overrun));

  EXPECT_THROW(ReadCompressedCsr(path), std::runtime_error);

  const VertexId bad_owner = original.OwnerOf(original.num_chunks() - 1);
  SelectiveCompressedLoader loader(path);
  // The corrupt byte lives in the last vertex's last chunk: a range that
  // stops short of it never touches those bytes and decodes fine...
  const DecodedRange clean = loader.LoadRange(0, bad_owner);
  for (VertexId v = 0; v < bad_owner; v += 41) {
    EXPECT_EQ(std::vector<VertexId>(
                  clean.neighbors.begin() + static_cast<int64_t>(clean.offsets[v]),
                  clean.neighbors.begin() + static_cast<int64_t>(clean.offsets[v + 1])),
              original.Neighbors(v))
        << "vertex " << v;
  }
  // ...while the range covering it throws.
  EXPECT_THROW(loader.LoadRange(bad_owner, loader.num_vertices()), std::runtime_error);
}

TEST_F(IoAdversarialTest, SelectiveLoaderDecodesOnlyRequestedBytes) {
  const CompressedCsr original = SampleCompressed(true);
  const std::string path = Path("cw.egc");
  WriteCompressedCsr(path, original);

  const VertexId n = original.num_vertices();
  const VertexId v_lo = n / 4;
  const VertexId v_hi = n / 2;
  SelectiveCompressedLoader loader(path);
  const DecodedRange range = loader.LoadRange(v_lo, v_hi);

  ASSERT_EQ(range.offsets.size(), static_cast<size_t>(v_hi - v_lo) + 1);
  for (VertexId v = v_lo; v < v_hi; ++v) {
    const size_t i = v - v_lo;
    const auto lo = static_cast<int64_t>(range.offsets[i]);
    const auto hi = static_cast<int64_t>(range.offsets[i + 1]);
    ASSERT_EQ(std::vector<VertexId>(range.neighbors.begin() + lo,
                                    range.neighbors.begin() + hi),
              original.Neighbors(v))
        << "vertex " << v;
    ASSERT_EQ(std::vector<float>(range.weights.begin() + lo, range.weights.begin() + hi),
              original.NeighborWeights(v))
        << "vertex " << v;
  }

  // Provably selective: exactly the covering byte span was decoded, the rest
  // of the stream was skipped untouched.
  const auto& stats = loader.stats();
  const uint64_t expected_bytes = static_cast<uint64_t>(original.ByteOffset(v_hi)) -
                                  static_cast<uint64_t>(original.ByteOffset(v_lo));
  EXPECT_EQ(stats.bytes_decoded, expected_bytes);
  EXPECT_LT(stats.bytes_decoded, loader.stream_bytes());
  EXPECT_EQ(stats.bytes_decoded + stats.bytes_skipped, loader.stream_bytes());
  EXPECT_EQ(stats.ranges_loaded, 1u);
}

TEST_F(IoAdversarialTest, SelectiveLoaderPartitionsCoverWholeGraph) {
  const CompressedCsr original = SampleCompressed(false);
  const std::string path = Path("c.egc");
  WriteCompressedCsr(path, original);

  SelectiveCompressedLoader loader(path);
  constexpr uint32_t kPartitions = 4;
  uint64_t edges_seen = 0;
  uint64_t bytes_seen = 0;
  VertexId next_vertex = 0;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    const DecodedRange part = loader.LoadPartition(p, kPartitions);
    EXPECT_EQ(part.v_lo, next_vertex);  // contiguous, no gaps or overlaps
    next_vertex = part.v_hi;
    edges_seen += part.neighbors.size();
  }
  EXPECT_EQ(next_vertex, loader.num_vertices());
  EXPECT_EQ(edges_seen, loader.num_edges());
  bytes_seen = loader.stats().bytes_decoded;
  // Contiguous partitions cover the full stream exactly once.
  EXPECT_EQ(bytes_seen, loader.stream_bytes());
  EXPECT_EQ(loader.stats().chunks_decoded,
            static_cast<uint64_t>(original.num_chunks()));
}

}  // namespace
}  // namespace egraph
