// Full end-to-end pipeline on simulated storage: write an edge file, stream
// it back from a simulated SSD and HDD, overlap pre-processing with loading
// (or not, depending on the method), then run WCC — reproducing the paper's
// section 3.4 insight interactively: radix sort wins in memory, dynamic
// building wins on slow media because it hides inside the transfer.
//
//   build/examples/end_to_end_pipeline [rmat-scale]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/algos/wcc.h"
#include "src/gen/datasets.h"
#include "src/io/edge_io.h"
#include "src/io/loader.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace egraph;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 16;

  const EdgeList graph = DatasetRmat(scale);
  const std::string path =
      (std::filesystem::temp_directory_path() / "egraph_pipeline.bin").string();
  WriteBinaryEdges(path, graph);
  std::printf("wrote %s (%.1f MiB)\n", path.c_str(),
              static_cast<double>(std::filesystem::file_size(path)) / (1 << 20));

  Table table({"medium", "method", "stalled(s)", "post-load(s)", "total(s)"});
  for (const StorageMedium medium : {kMediumMemory, kMediumSsd, kMediumHdd}) {
    for (const BuildMethod method : {BuildMethod::kRadixSort, BuildMethod::kDynamic}) {
      LoadBuildOptions options;
      options.method = method;
      options.medium = medium;
      const LoadBuildResult result = LoadAndBuild(path, options);
      table.AddRow({medium.name, BuildMethodName(method),
                    Table::FormatSeconds(result.load_stall_seconds),
                    Table::FormatSeconds(result.post_load_seconds),
                    Table::FormatSeconds(result.total_seconds)});
    }
  }
  table.Print("loading + adjacency-list construction (out only)");

  // Use the last loaded graph for connected components (edge array: zero
  // additional pre-processing).
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult wcc = RunWcc(handle, config);
  int64_t components = 0;
  for (VertexId v = 0; v < handle.num_vertices(); ++v) {
    if (wcc.label[v] == v) {
      ++components;
    }
  }
  std::printf("\nWCC: %lld weakly connected components in %.3f s (%d rounds)\n",
              static_cast<long long>(components), wcc.stats.algorithm_seconds,
              wcc.stats.rounds());
  std::filesystem::remove(path);
  return 0;
}
