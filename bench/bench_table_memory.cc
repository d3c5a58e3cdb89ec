// Memory-footprint inventory: bytes held by each data layout for the same
// graph. Context for the paper's trade-offs — pre-processing buys a second
// copy of the graph (CSR, grid), and push-pull needs two of them.
#include "bench/bench_common.h"
#include "src/layout/compressed_csr.h"
#include "src/util/timer.h"
#include "src/engine/graph_handle.h"
#include "src/layout/csr_builder.h"
#include "src/layout/grid.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  const EdgeList graph = Rmat();
  PrintBanner("Memory footprint by layout",
              "edge array is the floor; push-pull doubles the CSR bill; compression "
              "trades decode time for bytes",
              DescribeDataset("rmat", graph));

  const size_t edge_array = graph.edges().size() * sizeof(Edge);
  Timer build_timer;
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  RecordResult("build out csr", build_timer.Seconds(), "rmat");
  const Csr in = BuildCsr(graph, EdgeDirection::kIn, BuildMethod::kRadixSort);
  GridOptions options;
  options.num_blocks = GraphHandle::AutoGridBlocks(graph.num_vertices());
  const Grid grid = BuildGrid(graph, options);
  const CompressedCsr compressed = CompressedCsr::Build(graph, EdgeDirection::kOut);

  Table table({"layout", "bytes", "vs edge array"});
  auto add = [&](const char* name, size_t bytes) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  static_cast<double>(bytes) / static_cast<double>(edge_array));
    table.AddRow({name, Table::FormatCount(static_cast<int64_t>(bytes)), ratio});
  };
  add("edge array (input)", edge_array);
  add("adjacency list (out)", out.MemoryBytes());
  add("adjacency lists (out+in, push-pull)", out.MemoryBytes() + in.MemoryBytes());
  add("grid", grid.MemoryBytes());
  add("compressed adjacency (out)", compressed.MemoryBytes());
  table.Print("Layout memory footprints");
  return 0;
}
