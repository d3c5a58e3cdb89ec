// Seeded input generation. Everything a workload consumes — the graph, the
// traversal sources, the serve query schedule and the update stream — is
// derived from (dataset, scale, seed) here and written to an input
// directory; the measured run reads only that directory.
//
// Files in an input directory:
//   graph.bin     binary edge file (src/io/edge_io.h format)
//   sources.txt   traversal sources, one vertex id per line
//   queries.txt   serve only: "<due_us> <kind> <source> <iterations>"
//   updates.txt   serve only: "<due_us> <add|del> <src> <dst>", mirrored
#ifndef PERFBENCH_SRC_GENERATE_H_
#define PERFBENCH_SRC_GENERATE_H_

#include <cstdint>
#include <string>

namespace perfbench {

// dataset: "twitter" (directed R-MAT proxy), "road" (weighted lattice) or
// "serve" (symmetrized twitter proxy plus query and update streams spread
// over `seconds`). Throws std::runtime_error on bad arguments or I/O.
void Generate(const std::string& dataset, int scale, uint64_t seed, double seconds,
              const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GENERATE_H_
