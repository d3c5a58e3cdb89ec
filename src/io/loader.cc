#include "src/io/loader.h"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Throws if a file of `file_bytes` bytes cannot contain the sections
// `header` declares. Runs before any buffer is sized from the header, so a
// corrupt edge count fails cleanly instead of OOMing.
void ValidateEdgeFileSize(const EdgeFileHeader& header, uint64_t file_bytes,
                          const std::string& path) {
  // Per-edge cost: 8 bytes, plus 4 for the weight when present. Overflow
  // guard first: a garbage num_edges must not wrap the product.
  const uint64_t per_edge = sizeof(Edge) + (header.has_weights() ? sizeof(float) : 0);
  const uint64_t payload_budget = UINT64_MAX - sizeof(EdgeFileHeader);
  if (header.num_edges > payload_budget / per_edge ||
      sizeof(EdgeFileHeader) + header.num_edges * per_edge > file_bytes) {
    throw std::runtime_error("truncated edge file: " + path);
  }
}

// Throws if any endpoint in `edges` is >= num_vertices. Runs on every
// streamed chunk so a corrupt file cannot drive an out-of-bounds scatter in
// the builders.
void ValidateEdgeChunk(std::span<const Edge> edges, VertexId num_vertices,
                       const std::string& path) {
  const VertexId max_endpoint = ParallelReduceMax<VertexId>(
      0, static_cast<int64_t>(edges.size()), 0, [&edges](int64_t i) {
        const Edge& e = edges[static_cast<size_t>(i)];
        return e.src > e.dst ? e.src : e.dst;
      });
  if (!edges.empty() && max_endpoint >= num_vertices) {
    throw std::runtime_error("edge endpoint out of range in " + path);
  }
}

EdgeFileHeader ReadHeader(ThrottledFileReader& reader, const std::string& path) {
  EdgeFileHeader header;
  if (reader.Read(&header, sizeof(header)) != sizeof(header) ||
      header.magic != kEdgeFileMagic) {
    throw std::runtime_error("bad or truncated edge file: " + path);
  }
  ValidateEdgeFileSize(header, reader.file_bytes(), path);
  return header;
}

// The one reader of binary edge files. Streams `path` chunk by chunk into
// `graph`: `on_header(header)` runs once the header passed its checks and
// before the first chunk, `on_chunk(first_edge_index, count)` after each
// chunk lands in the edge array and its endpoints passed validation. The
// weight section is read after the last chunk.
template <typename OnHeader, typename OnChunk>
void StreamEdges(const std::string& path, size_t chunk_bytes, EdgeList& graph,
                 ThrottledFileReader& reader, OnHeader&& on_header, OnChunk&& on_chunk) {
  const EdgeFileHeader header = ReadHeader(reader, path);
  graph.set_num_vertices(header.num_vertices);
  graph.mutable_edges().resize(header.num_edges);
  Edge* edges = graph.mutable_edges().data();
  on_header(header);

  const size_t edges_per_chunk = chunk_bytes / sizeof(Edge) == 0 ? 1 : chunk_bytes / sizeof(Edge);
  uint64_t cursor = 0;
  while (cursor < header.num_edges) {
    const uint64_t want =
        std::min<uint64_t>(edges_per_chunk, header.num_edges - cursor);
    size_t got = 0;
    {
      obs::TimelineSpan read_span("io", "read.chunk",
                                  static_cast<int64_t>(want * sizeof(Edge)));
      got = reader.Read(edges + cursor, want * sizeof(Edge));
    }
    if (got != want * sizeof(Edge)) {
      throw std::runtime_error("truncated edge section in " + path);
    }
    obs::TimelineSpan build_span("io", "build.chunk", static_cast<int64_t>(want));
    ValidateEdgeChunk({edges + cursor, static_cast<size_t>(want)}, header.num_vertices,
                      path);
    on_chunk(cursor, want);
    cursor += want;
  }
  if (header.has_weights()) {
    graph.mutable_weights().resize(header.num_edges);
    const size_t bytes = header.num_edges * sizeof(float);
    if (reader.Read(graph.mutable_weights().data(), bytes) != bytes) {
      throw std::runtime_error("truncated weight section in " + path);
    }
  }
}

}  // namespace

EdgeList LoadEdges(const std::string& path, StorageMedium medium, double* seconds) {
  obs::ScopedPhase phase(obs::Phase::kLoad);
  Timer timer;
  EdgeList graph;
  ThrottledFileReader reader(path, medium);
  StreamEdges(path, 8u << 20, graph, reader, [](const EdgeFileHeader&) {},
              [](uint64_t, uint64_t) {});
  obs::Registry::Get().GetCounter("io.edges_loaded").Add(
      static_cast<int64_t>(graph.num_edges()));
  if (seconds != nullptr) {
    *seconds = timer.Seconds();
  }
  return graph;
}

LoadBuildResult LoadAndBuild(const std::string& path, const LoadBuildOptions& options) {
  LoadBuildResult result;
  Timer total;

  std::unique_ptr<DynamicAdjacencyBuilder> dyn_out;
  std::unique_ptr<DynamicAdjacencyBuilder> dyn_in;
  std::unique_ptr<CountingAdjacencyBuilder> count_out;
  std::unique_ptr<CountingAdjacencyBuilder> count_in;

  // The builders are sized from the header the stream itself read, so the
  // vertex count they index by is the one every chunk was validated against.
  auto make_builders = [&](const EdgeFileHeader& header) {
    switch (options.method) {
      case BuildMethod::kDynamic:
        dyn_out = std::make_unique<DynamicAdjacencyBuilder>(
            header.num_vertices, EdgeDirection::kOut, header.has_weights());
        if (options.build_in) {
          dyn_in = std::make_unique<DynamicAdjacencyBuilder>(
              header.num_vertices, EdgeDirection::kIn, header.has_weights());
        }
        break;
      case BuildMethod::kCountSort:
        count_out = std::make_unique<CountingAdjacencyBuilder>(header.num_vertices,
                                                               EdgeDirection::kOut);
        if (options.build_in) {
          count_in = std::make_unique<CountingAdjacencyBuilder>(header.num_vertices,
                                                                EdgeDirection::kIn);
        }
        break;
      case BuildMethod::kRadixSort:
        // Radix sorting needs the complete edge array; nothing to overlap.
        break;
    }
  };
  // The per-chunk work each build method can overlap with the transfer.
  auto on_chunk = [&](uint64_t first, uint64_t count) {
    std::span<const Edge> chunk(result.edges.edges().data() + first, count);
    if (dyn_out != nullptr) {
      // Weights stream after the edge section; AddChunkDeferred records
      // file indices so FinalizeDeferred attaches the real weights.
      dyn_out->AddChunkDeferred(chunk, first);
      if (dyn_in != nullptr) {
        dyn_in->AddChunkDeferred(chunk, first);
      }
    } else if (count_out != nullptr) {
      count_out->CountChunk(chunk);
      if (count_in != nullptr) {
        count_in->CountChunk(chunk);
      }
    }
  };

  ThrottledFileReader reader(path, options.medium);
  StreamEdges(path, options.chunk_bytes, result.edges, reader, make_builders, on_chunk);
  result.load_stall_seconds = reader.stall_seconds();
  obs::Registry::Get().GetCounter("io.stall_micros").Add(
      static_cast<int64_t>(result.load_stall_seconds * 1e6));

  if (options.method == BuildMethod::kDynamic) {
    // The paper's dynamic adjacency structure is complete here.
    result.ready_seconds = total.Seconds();
  }

  Timer post;
  switch (options.method) {
    case BuildMethod::kDynamic:
      result.out = dyn_out->FinalizeDeferred(result.edges.weights());
      if (dyn_in != nullptr) {
        result.in = dyn_in->FinalizeDeferred(result.edges.weights());
        result.has_in = true;
      }
      break;
    case BuildMethod::kCountSort:
      result.out = count_out->Scatter(result.edges);
      if (count_in != nullptr) {
        result.in = count_in->Scatter(result.edges);
        result.has_in = true;
      }
      break;
    case BuildMethod::kRadixSort:
      result.out = BuildCsr(result.edges, EdgeDirection::kOut, BuildMethod::kRadixSort);
      if (options.build_in) {
        result.in = BuildCsr(result.edges, EdgeDirection::kIn, BuildMethod::kRadixSort);
        result.has_in = true;
      }
      break;
  }
  result.post_load_seconds = post.Seconds();
  result.total_seconds = total.Seconds();
  if (options.method != BuildMethod::kDynamic) {
    result.ready_seconds = result.total_seconds;
  }
  // Phase attribution follows the paper's split: streaming the file is
  // "load"; everything after the last byte (Finalize/Scatter/BuildCsr) is
  // "pre-process". For kDynamic the structure grows during the stream, so
  // only the Finalize tail counts as pre-processing.
  obs::PhaseTimers::Get().Add(obs::Phase::kLoad,
                              result.total_seconds - result.post_load_seconds);
  obs::PhaseTimers::Get().Add(obs::Phase::kPreprocess, result.post_load_seconds);
  obs::Registry::Get().GetCounter("io.edges_loaded").Add(
      static_cast<int64_t>(result.edges.num_edges()));
  return result;
}

}  // namespace egraph
