// Ablation: the first-class compressed EdgeMap backend vs plain CSR.
//
// For a power-law graph (twitter proxy) and a high-diameter road network it
// reports, per dataset:
//   - build cost (the `encode` cell: CompressedCsr::Build from the edge
//     list, its sort included) and bytes/edge (chunked delta-varint stream
//     + the three metadata tables vs plain offsets + neighbor array),
//   - traversal time for all four kernels (BFS push, SSSP push on weights,
//     WCC push on the symmetrized graph, PageRank pull lock-free) on the
//     plain and compressed layouts.
//
// Hard gates (exit 1): the compressed layout must be strictly smaller than
// the plain CSR on BOTH datasets (the road lattice is the adversarial case
// for chunk metadata); every kernel's result checksum must be identical
// across layouts; and decode overhead must stay within a bounded slowdown.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr_builder.h"
#include "src/serve/checksum.h"

namespace {

using namespace egraph;
using namespace egraph::bench;

constexpr int kReps = 3;
// Decode overhead gate: a generous multiplier, armed once the plain cell is
// long enough to mean something (TimingGate).
constexpr double kMaxSlowdown = 5.0;

int failures = 0;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::string Ratio(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", value);
  return buffer;
}

// One kernel cell: run on plain adjacency and on the compressed layout,
// record both timings, gate checksum identity and bounded slowdown.
struct CellResult {
  double plain_seconds = 0.0;
  double compressed_seconds = 0.0;
};

template <typename RunFn>
CellResult RunCell(const std::string& cell, const std::string& dataset,
                   const EdgeList& graph, RunConfig config, RunFn run,
                   bool sort_plain_neighbors = false) {
  CellResult result;
  uint64_t plain_checksum = 0;
  uint64_t compressed_checksum = 0;
  for (const Layout layout : {Layout::kAdjacency, Layout::kCompressed}) {
    config.layout = layout;
    GraphHandle handle(graph);
    if (layout == Layout::kAdjacency && sort_plain_neighbors) {
      // The compressed stream stores each adjacency sorted; PageRank's pull
      // gather is a float sum in neighbor order, so the plain cell must
      // gather in the same canonical order for bit-identical ranks.
      PrepareConfig prepare;
      prepare.layout = Layout::kAdjacency;
      prepare.symmetric_input = config.symmetric_input;
      prepare.need_out = true;
      prepare.need_in = true;
      prepare.sort_neighbors = true;
      handle.Prepare(prepare);
    }
    const bool compressed = layout == Layout::kCompressed;
    const std::string name = cell + (compressed ? " compressed" : " plain");
    double seconds = 0.0;
    uint64_t checksum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      seconds = run(handle, config, &checksum);
      RecordResult(name, seconds, dataset);
    }
    (compressed ? result.compressed_seconds : result.plain_seconds) = seconds;
    (compressed ? compressed_checksum : plain_checksum) = checksum;
  }
  Gate(plain_checksum == compressed_checksum,
       cell + " on " + dataset + ": checksum mismatch plain vs compressed");
  Gate(TimingGate(result.compressed_seconds, result.plain_seconds, kMaxSlowdown,
                  /*can_arm=*/true),
       cell + " on " + dataset + ": compressed decode slowdown out of bounds");
  return result;
}

void RunDataset(const std::string& dataset, const EdgeList& graph, Table& layout_table,
                Table& kernel_table) {
  // Layout footprint + build cost: plain out-CSR vs compressed lists built
  // from the same edge list. The `encode` cell times CompressedCsr::Build
  // end to end: its one (vertex, neighbor) sort plus the encode.
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  double encode_seconds = 0.0;
  const CompressedCsr compressed =
      CompressedCsr::Build(graph, EdgeDirection::kOut, &encode_seconds);
  RecordResult("encode", encode_seconds, dataset);
  // Bytes/edge is machine-independent, so recording it as a cell lets the
  // CI regression gate catch a compression-ratio blowup too.
  RecordResult("bytes per edge compressed", compressed.BytesPerEdge(), dataset);
  layout_table.AddRow(
      {dataset, Table::FormatCount(static_cast<int64_t>(out.MemoryBytes())),
       Table::FormatCount(static_cast<int64_t>(compressed.MemoryBytes())),
       Ratio(compressed.RatioVsPlain()), Sec(encode_seconds)});
  Gate(compressed.MemoryBytes() < out.MemoryBytes(),
       dataset + ": compressed layout not smaller than plain CSR");

  // The four kernels, plain vs compressed.
  const VertexId source = GoodSource(graph);
  {
    RunConfig config;
    config.direction = Direction::kPush;
    const CellResult r =
        RunCell("bfs push", dataset, graph, config,
                [&](GraphHandle& handle, const RunConfig& c, uint64_t* checksum) {
                  const BfsResult result = RunBfs(handle, source, c);
                  *checksum = serve::ChecksumBfs(result.parent);
                  return result.stats.algorithm_seconds;
                });
    kernel_table.AddRow({"bfs push", dataset, Sec(r.plain_seconds),
                         Sec(r.compressed_seconds),
                         Ratio(r.compressed_seconds / r.plain_seconds)});
  }
  {
    EdgeList weighted = graph;
    weighted.AssignRandomWeights(0.1f, 2.0f, 0x5eed);
    RunConfig config;
    config.direction = Direction::kPush;
    const CellResult r =
        RunCell("sssp push", dataset, weighted, config,
                [&](GraphHandle& handle, const RunConfig& c, uint64_t* checksum) {
                  const SsspResult result = RunSssp(handle, source, c);
                  *checksum = serve::ChecksumSssp(result.dist);
                  return result.stats.algorithm_seconds;
                });
    kernel_table.AddRow({"sssp push", dataset, Sec(r.plain_seconds),
                         Sec(r.compressed_seconds),
                         Ratio(r.compressed_seconds / r.plain_seconds)});
  }
  {
    const EdgeList undirected = graph.MakeUndirected();
    RunConfig config;
    config.direction = Direction::kPush;
    config.symmetric_input = true;
    const CellResult r =
        RunCell("wcc push", dataset, undirected, config,
                [&](GraphHandle& handle, const RunConfig& c, uint64_t* checksum) {
                  const WccResult result = RunWcc(handle, c);
                  *checksum = serve::ChecksumWcc(result.label);
                  return result.stats.algorithm_seconds;
                });
    kernel_table.AddRow({"wcc push", dataset, Sec(r.plain_seconds),
                         Sec(r.compressed_seconds),
                         Ratio(r.compressed_seconds / r.plain_seconds)});
  }
  {
    RunConfig config;
    config.direction = Direction::kPull;
    config.sync = Sync::kLockFree;
    PagerankOptions options;
    options.iterations = 5;
    const CellResult r =
        RunCell("pagerank pull", dataset, graph, config,
                [&](GraphHandle& handle, const RunConfig& c, uint64_t* checksum) {
                  const PagerankResult result = RunPagerank(handle, options, c);
                  *checksum = serve::ChecksumPagerank(result.rank);
                  return result.stats.algorithm_seconds;
                },
                /*sort_plain_neighbors=*/true);
    kernel_table.AddRow({"pagerank pull", dataset, Sec(r.plain_seconds),
                         Sec(r.compressed_seconds),
                         Ratio(r.compressed_seconds / r.plain_seconds)});
  }
}

}  // namespace

int main() {
  const EdgeList twitter = Twitter();
  const EdgeList road = UsRoad();
  PrintBanner("Ablation compression: chunked delta-varint adjacency vs plain CSR",
              "smaller layout on both graph shapes, identical kernel results, "
              "bounded decode overhead",
              DescribeDataset("twitter-proxy", twitter) + "; " +
                  DescribeDataset("us-road", road));

  Table layout_table({"dataset", "plain bytes", "compressed bytes", "ratio", "encode"});
  Table kernel_table({"cell", "dataset", "plain", "compressed", "slowdown"});
  RunDataset("twitter-proxy", twitter, layout_table, kernel_table);
  RunDataset("us-road", road, layout_table, kernel_table);

  layout_table.Print("Layout footprint");
  kernel_table.Print("Kernels: plain vs compressed");
  if (failures != 0) {
    std::fprintf(stderr, "%d compression-ablation gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all compression gates passed\n");
  return 0;
}
