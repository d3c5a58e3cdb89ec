#include "src/io/edge_io.h"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/io/text_parse.h"
#include "src/util/parallel.h"

namespace egraph {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using UniqueFile = std::unique_ptr<std::FILE, FileCloser>;

UniqueFile OpenOrThrow(const std::string& path, const char* mode) {
  UniqueFile file(std::fopen(path.c_str(), mode));
  if (file == nullptr) {
    throw std::runtime_error("cannot open " + path);
  }
  return file;
}

void WriteOrThrow(std::FILE* f, const void* data, size_t bytes, const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("short write to " + path);
  }
}

}  // namespace

void WriteBinaryEdges(const std::string& path, const EdgeList& graph) {
  UniqueFile file = OpenOrThrow(path, "wb");
  EdgeFileHeader header;
  header.num_vertices = graph.num_vertices();
  header.flags = graph.has_weights() ? 1u : 0u;
  header.num_edges = graph.num_edges();
  WriteOrThrow(file.get(), &header, sizeof(header), path);
  WriteOrThrow(file.get(), graph.edges().data(), graph.edges().size() * sizeof(Edge), path);
  if (graph.has_weights()) {
    WriteOrThrow(file.get(), graph.weights().data(), graph.weights().size() * sizeof(float),
                 path);
  }
}

void WriteTextEdges(const std::string& path, const EdgeList& graph) {
  UniqueFile file = OpenOrThrow(path, "w");
  std::fprintf(file.get(), "# vertices %u\n", graph.num_vertices());
  for (size_t i = 0; i < graph.edges().size(); ++i) {
    const Edge& e = graph.edges()[i];
    if (graph.has_weights()) {
      std::fprintf(file.get(), "%u %u %.6g\n", e.src, e.dst, graph.weights()[i]);
    } else {
      std::fprintf(file.get(), "%u %u\n", e.src, e.dst);
    }
  }
}

namespace {

// Per-shard output of the parallel text parse. Shards are concatenated in
// order, so the resulting edge order matches the sequential reader's.
struct TextShard {
  std::vector<Edge> edges;
  std::vector<float> weights;
  bool any_weighted = false;
  bool any_unweighted = false;
  bool has_declared = false;
  VertexId declared_vertices = 0;
  std::string error;  // first malformed line, if any
};

// Parses one newline-aligned shard of "src dst [weight]" lines. Lines may
// be arbitrarily long (no fgets buffer to split them); ids are strict
// unsigned (no silent negative wraparound); trailing junk is an error.
void ParseTextShard(std::string_view shard, const std::string& path, TextShard& out) {
  const char* cursor = shard.data();
  const char* const end = cursor + shard.size();
  while (cursor != end) {
    const std::string_view line = text::NextLine(cursor, end);
    const char* p = line.data();
    const char* const le = p + line.size();
    p = text::SkipSpace(p, le);
    if (p == le) {
      continue;
    }
    if (*p == '#') {
      // Recognize the "# vertices N" directive; other comments are skipped.
      const char* q = text::SkipSpace(p + 1, le);
      const std::string_view keyword("vertices");
      if (static_cast<size_t>(le - q) > keyword.size() &&
          std::string_view(q, keyword.size()) == keyword) {
        q += keyword.size();
        VertexId declared = 0;
        if (text::ParseUnsigned(q, le, declared) && text::AtLineEnd(q, le)) {
          out.declared_vertices = declared;
          out.has_declared = true;
        }
      }
      continue;
    }
    VertexId src = 0;
    VertexId dst = 0;
    if (!text::ParseUnsigned(p, le, src) || !text::ParseUnsigned(p, le, dst)) {
      out.error = "unparsable line in " + path + ": " + std::string(line);
      return;
    }
    // kInvalidVertex is the engine's "no vertex"; as an id, max + 1 wraps.
    if (src >= kInvalidVertex || dst >= kInvalidVertex) {
      out.error = "vertex id out of range in " + path + ": " + std::string(line);
      return;
    }
    if (text::AtLineEnd(p, le)) {
      out.any_unweighted = true;
      out.edges.push_back({src, dst});
      continue;
    }
    double weight = 0.0;
    if (!text::ParseDouble(p, le, weight) || !text::AtLineEnd(p, le)) {
      out.error = "unparsable line in " + path + ": " + std::string(line);
      return;
    }
    out.any_weighted = true;
    out.edges.push_back({src, dst});
    out.weights.push_back(static_cast<float>(weight));
  }
}

}  // namespace

EdgeList ReadTextEdges(const std::string& path) {
  const std::string content = ReadWholeFile(path);
  std::vector<TextShard> shards(static_cast<size_t>(ThreadPool::Current().num_threads()));
  const size_t used = ParallelLineShards(
      content, /*min_shard_bytes=*/64u << 10,
      [&](size_t index, std::string_view text) { ParseTextShard(text, path, shards[index]); });
  shards.resize(used);

  bool any_weighted = false;
  bool any_unweighted = false;
  size_t total_edges = 0;
  for (const TextShard& shard : shards) {
    if (!shard.error.empty()) {
      throw std::runtime_error(shard.error);
    }
    any_weighted = any_weighted || shard.any_weighted;
    any_unweighted = any_unweighted || shard.any_unweighted;
    total_edges += shard.edges.size();
  }
  if (any_weighted && any_unweighted) {
    throw std::runtime_error("mixed weighted/unweighted lines in " + path);
  }

  EdgeList graph;
  graph.Reserve(total_edges);
  if (any_weighted) {
    graph.mutable_weights().reserve(total_edges);
  }
  for (TextShard& shard : shards) {
    graph.mutable_edges().insert(graph.mutable_edges().end(), shard.edges.begin(),
                                 shard.edges.end());
    if (any_weighted) {
      graph.mutable_weights().insert(graph.mutable_weights().end(), shard.weights.begin(),
                                     shard.weights.end());
    }
    // The sequential reader honored the last "# vertices" directive seen.
    if (shard.has_declared) {
      graph.set_num_vertices(shard.declared_vertices);
    }
  }
  graph.RecomputeNumVertices();
  return graph;
}

}  // namespace egraph
