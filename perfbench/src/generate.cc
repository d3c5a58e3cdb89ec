#include "perfbench/src/generate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <vector>

#include "perfbench/src/workload_config.h"
#include "src/gen/datasets.h"
#include "src/graph/stats.h"
#include "src/io/edge_io.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using egraph::EdgeList;
using egraph::VertexId;

std::FILE* OpenForWrite(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  return file;
}

void WriteSources(const std::string& path, const std::vector<VertexId>& sources) {
  std::FILE* file = OpenForWrite(path);
  for (VertexId v : sources) {
    std::fprintf(file, "%u\n", v);
  }
  std::fclose(file);
}

// Distinct seeded picks among the top 1% of vertices by out-degree, so every
// traversal starts inside the giant component and costs about the same
// whatever the seed.
std::vector<VertexId> PickHubSources(const EdgeList& graph, int count, egraph::Xoshiro256& rng) {
  const std::vector<uint32_t> degree = egraph::OutDegrees(graph);
  std::vector<uint32_t> sorted = degree;
  const size_t top = std::max<size_t>(static_cast<size_t>(count), sorted.size() / 100);
  std::nth_element(sorted.begin(), sorted.begin() + (top - 1), sorted.end(),
                   std::greater<uint32_t>());
  const uint32_t min_degree = std::max<uint32_t>(1, sorted[top - 1]);
  std::vector<VertexId> sources;
  const VertexId n = graph.num_vertices();
  while (static_cast<int>(sources.size()) < count) {
    const VertexId v = static_cast<VertexId>(rng.Next() % n);
    if (degree[v] >= min_degree &&
        std::find(sources.begin(), sources.end(), v) == sources.end()) {
      sources.push_back(v);
    }
  }
  return sources;
}

void GenerateTwitter(int scale, uint64_t seed, const std::string& out_dir) {
  const EdgeList graph = egraph::DatasetTwitter(scale, seed);
  egraph::WriteBinaryEdges(out_dir + "/graph.bin", graph);
  egraph::Xoshiro256 rng(seed ^ 0x5eed5eedULL);
  WriteSources(out_dir + "/sources.txt", PickHubSources(graph, kTwitterBfsSources, rng));
}

void GenerateRoad(int scale, uint64_t seed, const std::string& out_dir) {
  EdgeList graph = egraph::DatasetUsRoad(scale, seed);
  graph.AssignRandomWeights(1.0f, 10.0f, seed);
  egraph::WriteBinaryEdges(out_dir + "/graph.bin", graph);
  // Sources come from the lattice's central block (vertex (x, y) has id
  // y * side + x), so every seed asks for traversals of similar depth.
  const uint64_t side = static_cast<uint64_t>(std::llround(std::sqrt(graph.num_vertices())));
  const uint64_t block = std::max<uint64_t>(1, side / 10);
  const uint64_t lo = side / 2 - block / 2;
  egraph::Xoshiro256 rng(seed ^ 0x70adULL);
  std::vector<VertexId> sources;
  while (static_cast<int>(sources.size()) < kRoadSources) {
    const uint64_t x = lo + rng.Next() % block;
    const uint64_t y = lo + rng.Next() % block;
    const VertexId v = static_cast<VertexId>(y * side + x);
    if (std::find(sources.begin(), sources.end(), v) == sources.end()) {
      sources.push_back(v);
    }
  }
  WriteSources(out_dir + "/sources.txt", sources);
}

void GenerateServe(int scale, uint64_t seed, double seconds, const std::string& out_dir) {
  const EdgeList graph = egraph::DatasetTwitter(scale, seed).MakeUndirected();
  egraph::WriteBinaryEdges(out_dir + "/graph.bin", graph);
  const std::vector<uint32_t> degree = egraph::OutDegrees(graph);
  const VertexId n = graph.num_vertices();
  auto random_vertex = [&](egraph::Xoshiro256& rng) {
    for (;;) {
      const VertexId v = static_cast<VertexId>(rng.Next() % n);
      if (degree[v] > 0) {
        return v;
      }
    }
  };

  // Open-loop query schedule at a fixed rate: query i is due at a seeded
  // point of the i-th slot of 1/rate seconds, so every seed sends the same
  // number of queries.
  egraph::Xoshiro256 query_rng(seed ^ 0x9e77ULL);
  std::FILE* queries = OpenForWrite(out_dir + "/queries.txt");
  const double gap_us = 1e6 / kServeQueriesPerSecond;
  const int count = std::max(1, static_cast<int>(std::lround(seconds * kServeQueriesPerSecond)));
  for (int i = 0; i < count; ++i) {
    const double due_us = gap_us * (i + query_rng.NextDouble());
    const double pick = query_rng.NextDouble();
    const char* kind = pick < kServeShareBfs                   ? "bfs"
                       : pick < kServeShareBfs + kServeShareSssp ? "sssp"
                       : pick < 1.0 - kServeSharePagerank        ? "wcc"
                                                                 : "pagerank";
    std::fprintf(queries, "%lld %s %u %d\n", static_cast<long long>(due_us), kind,
                 random_vertex(query_rng), kServePagerankIterations);
  }
  std::fclose(queries);

  // Update stream: every kUpdateBatchMicros a batch of logical updates, half
  // inserts of random pairs and half deletes of existing edges, each
  // mirrored so the graph stays symmetric.
  egraph::Xoshiro256 update_rng(seed ^ 0x0dd5ULL);
  std::FILE* updates = OpenForWrite(out_dir + "/updates.txt");
  const int per_batch = static_cast<int>(kServeUpdatesPerSecond * kUpdateBatchMicros / 1e6);
  const auto& edges = graph.edges();
  for (double batch_us = 0.0; batch_us < seconds * 1e6; batch_us += kUpdateBatchMicros) {
    for (int i = 0; i < per_batch; ++i) {
      VertexId src = 0;
      VertexId dst = 0;
      const bool insert = update_rng.NextDouble() < 0.5;
      if (insert) {
        src = random_vertex(update_rng);
        dst = random_vertex(update_rng);
      } else {
        const egraph::Edge& e = edges[update_rng.Next() % edges.size()];
        src = e.src;
        dst = e.dst;
      }
      const char* op = insert ? "add" : "del";
      std::fprintf(updates, "%lld %s %u %u\n%lld %s %u %u\n",
                   static_cast<long long>(batch_us), op, src, dst,
                   static_cast<long long>(batch_us), op, dst, src);
    }
  }
  std::fclose(updates);
}

}  // namespace

void Generate(const std::string& dataset, int scale, uint64_t seed, double seconds,
              const std::string& out_dir) {
  if (scale < 4 || scale > 26) {
    throw std::runtime_error("scale out of range: " + std::to_string(scale));
  }
  if (dataset == "twitter") {
    GenerateTwitter(scale, seed, out_dir);
  } else if (dataset == "road") {
    GenerateRoad(scale, seed, out_dir);
  } else if (dataset == "serve") {
    GenerateServe(scale, seed, seconds, out_dir);
  } else {
    throw std::runtime_error("unknown dataset: " + dataset);
  }
}

}  // namespace perfbench
