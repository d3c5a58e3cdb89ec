#include "src/io/formats.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/io/text_parse.h"
#include "src/util/thread_pool.h"

namespace egraph {
namespace {

// Shared result shape for the parallel shard parsers. Shards concatenate in
// order, so the edge order matches what a sequential line-by-line reader
// would produce.
struct ParsedShard {
  std::vector<Edge> edges;
  std::vector<float> weights;
  uint64_t entries = 0;  // MatrixMarket: data lines consumed (pre-mirroring)
  std::string error;
};

void ParseSnapShard(std::string_view shard, const std::string& path, ParsedShard& out) {
  const char* cursor = shard.data();
  const char* const end = cursor + shard.size();
  while (cursor != end) {
    const std::string_view line = text::NextLine(cursor, end);
    const char* p = line.data();
    const char* const le = p + line.size();
    p = text::SkipSpace(p, le);
    if (p == le || *p == '#') {
      continue;
    }
    VertexId src = 0;
    VertexId dst = 0;
    if (!text::ParseUnsigned(p, le, src) || !text::ParseUnsigned(p, le, dst)) {
      out.error = "unparsable SNAP line in " + path + ": " + std::string(line);
      return;
    }
    // kInvalidVertex is the engine's "no vertex"; as an id, max + 1 wraps.
    if (src >= kInvalidVertex || dst >= kInvalidVertex) {
      out.error = "vertex id out of range in " + path + ": " + std::string(line);
      return;
    }
    // Some SNAP exports carry extra numeric columns (timestamps); ignore
    // them, but reject non-numeric trailing junk.
    while (!text::AtLineEnd(p, le)) {
      double ignored = 0.0;
      if (!text::ParseDouble(p, le, ignored)) {
        out.error = "unparsable SNAP line in " + path + ": " + std::string(line);
        return;
      }
    }
    out.edges.push_back({src, dst});
  }
}

struct MmHeader {
  bool pattern = false;
  bool symmetric = false;
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t nnz = 0;
};

void ParseMmShard(std::string_view shard, const MmHeader& mm, const std::string& path,
                  ParsedShard& out) {
  const char* cursor = shard.data();
  const char* const end = cursor + shard.size();
  while (cursor != end) {
    const std::string_view line = text::NextLine(cursor, end);
    const char* p = line.data();
    const char* const le = p + line.size();
    p = text::SkipSpace(p, le);
    if (p == le || *p == '%') {
      continue;
    }
    uint64_t i = 0;
    uint64_t j = 0;
    if (!text::ParseUnsigned(p, le, i) || !text::ParseUnsigned(p, le, j)) {
      out.error = "bad MatrixMarket entry in " + path + ": " + std::string(line);
      return;
    }
    double value = 1.0;
    if (!mm.pattern) {
      if (!text::ParseDouble(p, le, value)) {
        out.error = "bad MatrixMarket entry in " + path + ": " + std::string(line);
        return;
      }
    }
    if (!text::AtLineEnd(p, le)) {
      out.error = "bad MatrixMarket entry in " + path + ": " + std::string(line);
      return;
    }
    if (i == 0 || j == 0 || i > mm.rows || j > mm.cols) {
      out.error = "MatrixMarket index out of range in " + path;
      return;
    }
    const VertexId src = static_cast<VertexId>(i - 1);
    const VertexId dst = static_cast<VertexId>(j - 1);
    out.edges.push_back({src, dst});
    if (!mm.pattern) {
      out.weights.push_back(static_cast<float>(value));
    }
    if (mm.symmetric && src != dst) {
      out.edges.push_back({dst, src});
      if (!mm.pattern) {
        out.weights.push_back(static_cast<float>(value));
      }
    }
    ++out.entries;
  }
}

// Runs `parse` over newline-aligned shards of `body` and concatenates the
// per-shard edge/weight vectors in order into `graph`. Returns total entry
// count; throws the first shard error.
template <typename ParseFn>
uint64_t ParseShardsInto(std::string_view body, EdgeList& graph, bool weighted,
                         const ParseFn& parse) {
  std::vector<ParsedShard> shards(static_cast<size_t>(ThreadPool::Current().num_threads()));
  const size_t used =
      ParallelLineShards(body, /*min_shard_bytes=*/64u << 10,
                         [&](size_t index, std::string_view text) {
                           parse(text, shards[index]);
                         });
  shards.resize(used);

  size_t total = 0;
  uint64_t entries = 0;
  for (const ParsedShard& shard : shards) {
    if (!shard.error.empty()) {
      throw std::runtime_error(shard.error);
    }
    total += shard.edges.size();
    entries += shard.entries;
  }
  graph.Reserve(graph.num_edges() + total);
  if (weighted) {
    graph.mutable_weights().reserve(graph.num_edges() + total);
  }
  for (const ParsedShard& shard : shards) {
    graph.mutable_edges().insert(graph.mutable_edges().end(), shard.edges.begin(),
                                 shard.edges.end());
    if (weighted) {
      graph.mutable_weights().insert(graph.mutable_weights().end(), shard.weights.begin(),
                                     shard.weights.end());
    }
  }
  return entries;
}

}  // namespace

EdgeList ReadSnapEdges(const std::string& path) {
  const std::string content = ReadWholeFile(path);
  EdgeList graph;
  ParseShardsInto(content, graph, /*weighted=*/false,
                  [&path](std::string_view text, ParsedShard& out) {
                    ParseSnapShard(text, path, out);
                  });
  graph.RecomputeNumVertices();
  return graph;
}

EdgeList ReadMatrixMarket(const std::string& path) {
  const std::string content = ReadWholeFile(path);
  const char* cursor = content.data();
  const char* const end = cursor + content.size();
  if (cursor == end) {
    throw std::runtime_error("empty MatrixMarket file: " + path);
  }

  // Banner line.
  const std::string_view banner_line = text::NextLine(cursor, end);
  const std::string banner(banner_line);
  char object[64] = {0};
  char format[64] = {0};
  char field[64] = {0};
  char symmetry[64] = {0};
  if (std::sscanf(banner.c_str(), "%%%%MatrixMarket %63s %63s %63s %63s", object, format,
                  field, symmetry) != 4) {
    throw std::runtime_error("bad MatrixMarket banner in " + path);
  }
  if (std::strcmp(object, "matrix") != 0 || std::strcmp(format, "coordinate") != 0) {
    throw std::runtime_error("unsupported MatrixMarket object/format in " + path);
  }
  MmHeader mm;
  mm.pattern = std::strcmp(field, "pattern") == 0;
  if (!mm.pattern && std::strcmp(field, "real") != 0 && std::strcmp(field, "integer") != 0) {
    throw std::runtime_error("unsupported MatrixMarket field: " + std::string(field));
  }
  mm.symmetric = std::strcmp(symmetry, "symmetric") == 0;
  if (!mm.symmetric && std::strcmp(symmetry, "general") != 0) {
    throw std::runtime_error("unsupported MatrixMarket symmetry: " + std::string(symmetry));
  }

  // Skip comments; read the dimensions line.
  bool have_size = false;
  while (cursor != end) {
    const std::string_view line = text::NextLine(cursor, end);
    const char* p = line.data();
    const char* const le = p + line.size();
    p = text::SkipSpace(p, le);
    if (p == le || *p == '%') {
      continue;
    }
    if (!text::ParseUnsigned(p, le, mm.rows) || !text::ParseUnsigned(p, le, mm.cols) ||
        !text::ParseUnsigned(p, le, mm.nnz) || !text::AtLineEnd(p, le)) {
      throw std::runtime_error("bad MatrixMarket size line in " + path);
    }
    have_size = true;
    break;
  }
  if (!have_size || (mm.rows == 0 && mm.cols == 0)) {
    throw std::runtime_error("missing MatrixMarket size line in " + path);
  }
  // Vertex ids are 32-bit: a larger dimension would wrap the vertex count
  // and every index past it.
  if (mm.rows > kInvalidVertex || mm.cols > kInvalidVertex) {
    throw std::runtime_error("MatrixMarket dimension out of vertex id range in " + path);
  }

  EdgeList graph;
  graph.set_num_vertices(static_cast<VertexId>(mm.rows > mm.cols ? mm.rows : mm.cols));
  const std::string_view body(cursor, static_cast<size_t>(end - cursor));
  const uint64_t read =
      ParseShardsInto(body, graph, /*weighted=*/!mm.pattern,
                      [&mm, &path](std::string_view text, ParsedShard& out) {
                        ParseMmShard(text, mm, path, out);
                      });
  if (read != mm.nnz) {
    throw std::runtime_error("MatrixMarket entry count mismatch in " + path);
  }
  return graph;
}

}  // namespace egraph
