// End-to-end loading + pre-processing pipelines (paper sections 3.4/3.5):
// streams an edge file from a (simulated) storage medium in chunks and
// overlaps adjacency-list construction with loading where the method allows:
//
//   dynamic     - per-vertex array growth is fully overlapped with loading
//   count sort  - the degree-count pass overlaps; the scatter pass runs after
//   radix sort  - only the raw load overlaps; sorting runs after
//
// One loop reads every binary edge file: it reads the header, checks the
// declared sections against the file size, then alternates read / build per
// chunk. The overlap comes from the medium's absolute delivery schedule
// (storage_sim.h): chunk k falls due at a fixed time, so the build work on
// chunk k-1 runs while the medium "transfers" chunk k.
#ifndef SRC_IO_LOADER_H_
#define SRC_IO_LOADER_H_

#include <string>

#include "src/graph/edge_list.h"
#include "src/io/edge_io.h"
#include "src/io/storage_sim.h"
#include "src/layout/csr.h"
#include "src/layout/csr_builder.h"

namespace egraph {

struct LoadBuildResult {
  Csr out;
  Csr in;             // built only when `build_in` was requested
  bool has_in = false;
  EdgeList edges;     // the loaded edge array (kept: it is itself a layout)
  double total_seconds = 0.0;      // wall time: first byte to finished CSR(s)
  double load_stall_seconds = 0.0; // time blocked on the medium
  double post_load_seconds = 0.0;  // build work after the last chunk arrived
  // Wall time until the adjacency structure is queryable. For the dynamic
  // method this is the end of streaming: the paper's dynamic layout IS the
  // per-vertex arrays, ready the moment the last chunk is consumed (we then
  // flatten to CSR for engine uniformity, which total_seconds includes).
  // For count/radix this equals total_seconds.
  double ready_seconds = 0.0;
};

struct LoadBuildOptions {
  BuildMethod method = BuildMethod::kRadixSort;
  bool build_in = false;  // also build the incoming adjacency list
  StorageMedium medium = kMediumMemory;
  size_t chunk_bytes = 8u << 20;  // streaming chunk size
};

// Loads the binary edge file at `path` and builds adjacency lists per
// `options`. Edge endpoints are validated per chunk against the header's
// vertex count. Throws std::runtime_error on malformed input.
LoadBuildResult LoadAndBuild(const std::string& path, const LoadBuildOptions& options);

// Plain streaming load with no pre-processing (the edge-array layout's full
// "pre-processing": nothing). Returns the graph and the wall time. Throws
// std::runtime_error on missing, corrupt or truncated input.
EdgeList LoadEdges(const std::string& path, StorageMedium medium, double* seconds = nullptr);

}  // namespace egraph

#endif  // SRC_IO_LOADER_H_
