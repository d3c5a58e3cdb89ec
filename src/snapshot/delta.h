// Streaming edge updates and the incremental CSR merge behind the epoch
// store (snapshot_store.h). The paper's central finding is that
// pre-processing frequently dominates end-to-end time, so a serving system
// that radix-rebuilds its CSR on every graph change pays the dominant cost
// over and over. Instead, an ordered update stream is compressed into one
// net effect per (src, dst) pair and two-pointer-merged into the existing
// sorted CSR — tombstoned base edges are filtered out, inserted copies are
// spliced in — parallelized over fixed 256-vertex chunks on the
// work-stealing pool (chunks are vertex-aligned, so a hub's list stays with
// one worker).
//
// Canonical form: every epoch CSR keeps its neighbor lists sorted (the
// paper's section-5.1 "sorted adjacency" layout). Sorting makes the merge
// order-canonical: a merged epoch is bit-identical to a from-scratch
// radix build + neighbor sort of the same updated edge multiset, which is
// what the snapshot differential tests gate on. Epochs are unweighted —
// the canonical sort cannot order equal-destination duplicates of
// differing weight deterministically, so the store strips weights and
// weighted algorithms degrade to unit weights (as everywhere else).
//
// Update semantics (multiset):
//   insert (u, v)  — appends one copy of the edge; duplicates stack.
//   delete (u, v)  — removes EVERY copy currently present; copies inserted
//                    later in the same stream survive (the stream is
//                    ordered). Deleting an absent edge is a no-op.
//   Self loops are ordinary edges. Endpoints beyond the current vertex
//   count grow the id space (num_vertices = max endpoint + 1).
#ifndef SRC_SNAPSHOT_DELTA_H_
#define SRC_SNAPSHOT_DELTA_H_

#include <span>
#include <string>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/layout/csr.h"

namespace egraph::snapshot {

struct EdgeUpdate {
  VertexId src = 0;
  VertexId dst = 0;
  bool insert = true;  // false: delete every current (src, dst) copy

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

// Net effect of an ordered update stream on one (src, dst) pair: drop the
// base copies or not, then append `adds` fresh copies. Walking a stream in
// order, a delete zeroes the pending adds and marks the base tombstoned; an
// insert increments adds. This is the whole reason in-stream order can be
// discarded after compression.
struct PairEffect {
  VertexId src = 0;
  VertexId dst = 0;
  uint32_t adds = 0;
  bool delete_base = false;
};

// Compresses an ordered update stream into one PairEffect per touched
// (src, dst) pair, sorted by (src, dst). O(U log U).
std::vector<PairEffect> CompressUpdates(std::span<const EdgeUpdate> updates);

// Swaps src/dst on every effect and re-sorts: the effect list for the
// in-CSR merge of the same update stream.
std::vector<PairEffect> TransposeEffects(std::span<const PairEffect> effects);

// 1 + the largest endpoint mentioned by `updates`, or 0 for an empty
// stream. Both the merge and the from-scratch reference grow the vertex
// space to max(current, this).
VertexId UpdateVertexBound(std::span<const EdgeUpdate> updates);

struct MergeStats {
  double seconds = 0.0;        // wall time inside MergeCsr
  EdgeIndex edges_out = 0;     // edges in the merged CSR
  EdgeIndex tombstoned = 0;    // base copies dropped by deletes
  EdgeIndex inserted = 0;      // copies appended by inserts
};

// Two-pointer merge of `effects` into `base`, returning a new sorted CSR
// over `num_vertices` vertices (>= base.num_vertices(); vertices beyond the
// base start empty). Requires base neighbor lists sorted (canonical form)
// and effects sorted by (src, dst) with one entry per pair — exactly what
// CompressUpdates returns. Parallelized over fixed 256-vertex chunks;
// untouched vertices are a straight copy.
Csr MergeCsr(const Csr& base, std::span<const PairEffect> effects,
             VertexId num_vertices, MergeStats* stats = nullptr);

// From-scratch reference: applies the ordered stream to a copy of `base`
// (multiset semantics above, weights stripped) and returns the updated edge
// list with num_vertices = max(base, UpdateVertexBound). O(E + U). The
// differential tests radix-build + neighbor-sort this and demand bit
// equality with MergeCsr's output; the full-rebuild refreeze strategy and
// bench_snapshot_updates time that rebuild as the merge's cost baseline.
EdgeList ApplyUpdatesToEdgeList(const EdgeList& base,
                                std::span<const EdgeUpdate> updates);

// Materializes the canonical (src-major, sorted) edge list of a CSR — the
// edge-array layout of an epoch handle, consistent with its CSR bit for bit.
EdgeList EdgeListFromCsr(const Csr& csr);

// Mirrors every update (u, v) -> also (v, u), preserving stream order, for
// stores over symmetrized graphs (matches EdgeList::MakeUndirected, which
// mirrors self loops too).
std::vector<EdgeUpdate> MirrorUpdates(std::span<const EdgeUpdate> updates);

// Reads an update stream file: one update per line,
//   add <src> <dst>     (also accepted: "+ <src> <dst>")
//   del <src> <dst>     (also accepted: "- <src> <dst>")
// '#' starts a comment. Throws std::runtime_error on malformed lines.
std::vector<EdgeUpdate> ReadUpdateFile(const std::string& path);

}  // namespace egraph::snapshot

#endif  // SRC_SNAPSHOT_DELTA_H_
