// Ablation: grid cell traversal order for Pagerank. Row-major (best source
// locality, synchronized writes), column-owned (lock-free destination
// ownership) and Hilbert-curve order (balanced reuse of both blocks,
// synchronized writes).
#include "bench/bench_common.h"
#include "src/algos/pagerank.h"
#include "src/engine/hilbert.h"
#include "src/engine/scan.h"
#include "src/graph/stats.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace {

using namespace egraph;

// Minimal Pagerank over a prebuilt grid with a pluggable scan order.
template <typename Scan>
double PagerankGridSeconds(const Grid& grid, const std::vector<uint32_t>& degree,
                           int iterations, Scan&& scan) {
  const VertexId n = grid.num_vertices();
  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  std::vector<float> contrib(n, 0.0f);
  std::vector<float> next(n, 0.0f);
  Timer timer;
  for (int iter = 0; iter < iterations; ++iter) {
    VertexMap(n, [&](VertexId v) {
      contrib[v] = degree[v] == 0 ? 0.0f : rank[v] / static_cast<float>(degree[v]);
      next[v] = 0.0f;
    });
    scan([&](VertexId src, VertexId dst, float) { AtomicAdd(&next[dst], contrib[src]); });
    VertexMap(n, [&](VertexId v) {
      next[v] = 0.15f / static_cast<float>(n) + 0.85f * next[v];
    });
    rank.swap(next);
  }
  return timer.Seconds();
}

}  // namespace

int main() {
  using namespace egraph::bench;
  const EdgeList graph = Rmat();
  PrintBanner("Ablation: grid traversal order (Pagerank)",
              "column ownership avoids synchronization; Hilbert maximizes block "
              "reuse for synchronized scans",
              DescribeDataset("rmat", graph));

  GridOptions options;
  options.num_blocks = GraphHandle::AutoGridBlocks(graph.num_vertices());
  BuildStats build;
  const Grid grid = BuildGrid(graph, options, &build);
  const std::vector<uint32_t> degree = OutDegrees(graph);

  Table table({"traversal order", "sync", "pagerank algo(s)"});
  const double row_major_seconds = PagerankGridSeconds(
      grid, degree, 10, [&](auto body) { ScanGridRowMajor(grid, body); });
  RecordResult("row-major", row_major_seconds, "rmat");
  table.AddRow({"row-major", "atomics", Sec(row_major_seconds)});
  const double hilbert_seconds = PagerankGridSeconds(
      grid, degree, 10, [&](auto body) { ScanGridHilbert(grid, body); });
  RecordResult("hilbert", hilbert_seconds, "rmat");
  table.AddRow({"hilbert", "atomics", Sec(hilbert_seconds)});
  // Column-owned scan needs no atomics: plain adds.
  {
    const VertexId n = grid.num_vertices();
    std::vector<float> rank(n, 1.0f / static_cast<float>(n));
    std::vector<float> contrib(n, 0.0f);
    std::vector<float> next(n, 0.0f);
    Timer timer;
    for (int iter = 0; iter < 10; ++iter) {
      VertexMap(n, [&](VertexId v) {
        contrib[v] = degree[v] == 0 ? 0.0f : rank[v] / static_cast<float>(degree[v]);
        next[v] = 0.0f;
      });
      ScanGridColumnOwned(grid,
                          [&](VertexId src, VertexId dst, float) { next[dst] += contrib[src]; });
      VertexMap(n, [&](VertexId v) {
        next[v] = 0.15f / static_cast<float>(n) + 0.85f * next[v];
      });
      rank.swap(next);
    }
    const double column_seconds = timer.Seconds();
    RecordResult("column-owned", column_seconds, "rmat");
    table.AddRow({"column-owned", "none", Sec(column_seconds)});
  }
  table.Print("Grid traversal-order ablation");
  return 0;
}
