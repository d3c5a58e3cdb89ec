// Hilbert-curve grid traversal: visits grid cells along a space-filling
// curve so consecutive cells share a source OR destination block — the cell
// ordering used by later out-of-core systems (and by the X-Stream authors'
// follow-up work) to improve block reuse beyond row-major order. Exposed as
// an alternative grid scan order plus an ablation bench.
#ifndef SRC_ENGINE_HILBERT_H_
#define SRC_ENGINE_HILBERT_H_

#include <bit>
#include <cstdint>

#include "src/engine/scan.h"
#include "src/layout/grid.h"

namespace egraph {

// Maps distance d along the Hilbert curve of a (2^order x 2^order) grid to
// cell coordinates (x, y). Standard bit-twiddling construction.
inline void HilbertD2Xy(uint32_t order, uint64_t d, uint32_t* x, uint32_t* y) {
  uint32_t rx = 0;
  uint32_t ry = 0;
  uint64_t t = d;
  *x = 0;
  *y = 0;
  for (uint32_t s = 1; s < (1u << order); s <<= 1) {
    rx = 1u & static_cast<uint32_t>(t / 2);
    ry = 1u & static_cast<uint32_t>(t ^ rx);
    // Rotate quadrant.
    if (ry == 0) {
      if (rx == 1) {
        *x = s - 1 - *x;
        *y = s - 1 - *y;
      }
      const uint32_t tmp = *x;
      *x = *y;
      *y = tmp;
    }
    *x += s * rx;
    *y += s * ry;
    t /= 4;
  }
}

// Grid scan in Hilbert-curve cell order, four curve cells per chunk, over
// the cell loop of every grid scan: body(src, dst, weight). Writes are
// unordered across threads, so the caller must synchronize destination
// updates (atomics/locks), as with ScanGridRowMajor. Grid dimensions that
// are not powers of two are covered by the enclosing power-of-two curve
// (out-of-range cells are skipped). Returns the edges scanned and relaxed.
template <typename Body>
EdgeCounts ScanGridHilbert(const Grid& grid, Body&& body) {
  const uint32_t blocks = grid.num_blocks();
  if (blocks == 0) {
    return {};
  }
  const uint32_t order = static_cast<uint32_t>(std::bit_width(blocks - 1));
  const int64_t curve_cells = int64_t{1} << (2 * order);
  obs::TimelineSpan timeline_span("engine", "scan.grid.hilbert");
  return CountedChunks(0, curve_cells, /*grain=*/4, [&](int64_t lo, int64_t hi, int /*worker*/) {
    EdgeCounts chunk;
    for (int64_t d = lo; d < hi; ++d) {
      uint32_t i = 0;
      uint32_t j = 0;
      HilbertD2Xy(order, static_cast<uint64_t>(d), &i, &j);
      if (i < blocks && j < blocks) {
        scan_internal::ScanCell(grid, i, j, body, chunk);
      }
    }
    return chunk;
  });
}

}  // namespace egraph

#endif  // SRC_ENGINE_HILBERT_H_
