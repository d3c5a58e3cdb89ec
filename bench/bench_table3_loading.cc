// Table 3: adjacency-list creation cost with loading from (simulated)
// storage included. Paper: dynamic building fully overlaps loading and wins
// on the slow disk; radix sort wins (or ties) on the SSD; count sort is
// inferior throughout and omitted from the paper's table (one count-sort
// row is kept to show its count pass overlapping the transfer).
//
// stall(s) is time the loader spent blocked on the medium; transfer(s) is
// file bytes / bandwidth, the floor a fully overlapped build (the paper's
// dynamic method) should reach.
#include <cstdio>
#include <filesystem>

#include "bench/bench_common.h"
#include "src/io/edge_io.h"
#include "src/io/loader.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  // A smaller graph keeps simulated transfers short: what matters is the
  // ratio between build cost and transfer time, which the bandwidth scaling
  // below preserves.
  const EdgeList graph = DatasetRmat(Scale() - 1);
  PrintBanner("Table 3: loading + pre-processing from SSD / disk",
              "dynamic overlaps loading (wins on slow disk); radix <= dynamic on SSD",
              DescribeDataset("rmat", graph));

  const std::string path =
      (std::filesystem::temp_directory_path() / "egraph_bench_t3.bin").string();
  WriteBinaryEdges(path, graph);
  const double file_bytes = static_cast<double>(std::filesystem::file_size(path));
  std::printf("edge file: %.1f MiB; media: ssd=380MB/s hdd=100MB/s (simulated)\n",
              file_bytes / (1 << 20));

  Table table({"approach", "out(s)", "in+out(s)", "stall(s)", "transfer(s)"});
  struct Row {
    const char* label;
    BuildMethod method;
    StorageMedium medium;
  };
  // The paper's machine B builds CSRs at multiple GB/s on 32 cores, so even
  // its 380 MB/s SSD is "slow" relative to construction. On this host the
  // single-threaded build throughput is itself ~100 MB/s, so the crossover
  // the paper observes between SSD and disk shifts toward lower bandwidths;
  // the extra 25 MB/s row makes the overlap win unambiguous.
  const StorageMedium kMediumNas{"nas", 25.0 * 1024 * 1024};
  const Row rows[] = {
      {"dynamic, SSD", BuildMethod::kDynamic, kMediumSsd},
      {"count-sort, SSD", BuildMethod::kCountSort, kMediumSsd},
      {"radix-sort, SSD", BuildMethod::kRadixSort, kMediumSsd},
      {"dynamic, disk", BuildMethod::kDynamic, kMediumHdd},
      {"radix-sort, disk", BuildMethod::kRadixSort, kMediumHdd},
      {"dynamic, 25MB/s NAS", BuildMethod::kDynamic, kMediumNas},
      {"radix-sort, 25MB/s NAS", BuildMethod::kRadixSort, kMediumNas},
  };
  for (const Row& row : rows) {
    LoadBuildOptions options;
    options.method = row.method;
    options.medium = row.medium;
    // Small chunks keep the un-overlappable tail (building the final chunk
    // after its arrival) negligible.
    options.chunk_bytes = 1u << 20;
    // ready_seconds: when the adjacency structure is usable (the paper's
    // dynamic layout needs no flattening step).
    const LoadBuildResult out_only = LoadAndBuild(path, options);
    options.build_in = true;
    const LoadBuildResult both = LoadAndBuild(path, options);
    RecordResult(row.label, out_only.ready_seconds, "rmat");
    table.AddRow({row.label, Sec(out_only.ready_seconds), Sec(both.ready_seconds),
                  Sec(both.load_stall_seconds),
                  Sec(file_bytes / row.medium.bandwidth_bytes_per_sec)});
  }
  table.Print("Table 3");
  std::filesystem::remove(path);
  return 0;
}
