// Road-network navigation: single-source shortest paths over the US-Road
// proxy (high diameter, tiny degrees). Shows why the paper's Table 6 picks
// adjacency lists + push for SSSP: with thousands of sparse iterations, edge
// arrays re-scan the world every round.
//
//   build/examples/road_navigation [lattice-side]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/algos/sssp.h"
#include "src/gen/road.h"
#include "src/graph/stats.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace egraph;
  const uint32_t side = argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 192;

  RoadOptions road;
  road.width = side;
  road.height = side;
  EdgeList graph = GenerateRoad(road);
  // Road segment lengths in kilometers.
  graph.AssignRandomWeights(0.5f, 3.0f, 2026);
  std::printf("road network: %u intersections, %llu road segments, diameter >= %u hops\n",
              graph.num_vertices(), static_cast<unsigned long long>(graph.num_edges()),
              EstimateEccentricity(graph, 0));

  const VertexId depot = 0;  // northwest corner

  Table table({"layout", "preproc(s)", "algo(s)", "total(s)", "iterations"});
  std::vector<float> dist;
  for (const Layout layout : {Layout::kAdjacency, Layout::kEdgeArray}) {
    GraphHandle handle(graph);
    RunConfig config;
    config.layout = layout;
    const SsspResult result = RunSssp(handle, depot, config);
    table.AddRow({LayoutName(layout), Table::FormatSeconds(handle.preprocess_seconds()),
                  Table::FormatSeconds(result.stats.algorithm_seconds),
                  Table::FormatSeconds(handle.preprocess_seconds() +
                                       result.stats.algorithm_seconds),
                  Table::FormatCount(result.stats.rounds())});
    dist = result.dist;
  }
  table.Print("SSSP from the depot, adjacency list vs edge array");

  // Sample a few delivery destinations.
  std::printf("\nsample routes from depot (km):\n");
  for (const VertexId target :
       {side - 1, side * (side - 1), side * side - 1, side * (side / 2) + side / 2}) {
    if (std::isinf(dist[target])) {
      std::printf("  intersection %u: unreachable (disconnected pocket)\n", target);
    } else {
      std::printf("  intersection %u: %.1f km\n", target,
                  static_cast<double>(dist[target]));
    }
  }
  return 0;
}
