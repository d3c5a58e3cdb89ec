// Interchange-format readers for the two text formats real graph datasets
// ship in: SNAP edge lists (Twitter, LiveJournal, ...) and Matrix Market
// coordinate files (SuiteSparse). Both parse into the library's EdgeList.
#ifndef SRC_IO_FORMATS_H_
#define SRC_IO_FORMATS_H_

#include <string>

#include "src/graph/edge_list.h"

namespace egraph {

// SNAP format: one "src<ws>dst" pair per line, '#' comment lines.
// Vertex ids are used as-is (the caller may compact them with reorder.h).
// Throws std::runtime_error on unparsable lines and on an id of
// kInvalidVertex or more.
EdgeList ReadSnapEdges(const std::string& path);

// Matrix Market coordinate format:
//   %%MatrixMarket matrix coordinate <real|integer|pattern> <general|symmetric>
//   % comments
//   ROWS COLS NNZ
//   i j [value]          (1-based)
// Entry (i, j) becomes edge (i-1) -> (j-1); `symmetric` mirrors off-diagonal
// entries; real/integer values become edge weights. Throws on malformed
// input, a dimension above kInvalidVertex, or unsupported qualifiers
// (complex, hermitian, skew-symmetric).
EdgeList ReadMatrixMarket(const std::string& path);

}  // namespace egraph

#endif  // SRC_IO_FORMATS_H_
