// GraphHandle: owns a graph plus whatever layouts have been prepared for it,
// and accounts every second of pre-processing — the quantity the paper shows
// frequently dominates end-to-end time.
//
// Lifecycle: a handle starts in the BUILD phase — single-owner, mutable —
// where a caller may install CSRs built elsewhere and Prepare() adds
// whatever a run needs. Calling Freeze() ends the build phase: the handle
// becomes an immutable, shareable snapshot that any number of
// ExecutionContexts may query concurrently. After Freeze(), InstallCsr
// aborts, while Prepare() stays callable from any thread: each layout is
// built exactly once under a std::call_once, so concurrent callers
// requesting the same layout block until the single build finishes and the
// pre-processing cost is paid once, not once per caller.
#ifndef SRC_ENGINE_GRAPH_HANDLE_H_
#define SRC_ENGINE_GRAPH_HANDLE_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "src/engine/options.h"
#include "src/graph/edge_list.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr.h"
#include "src/layout/csr_builder.h"
#include "src/layout/grid.h"
#include "src/shard/sharded_graph.h"
#include "src/util/spinlock.h"

namespace egraph {

struct PrepareConfig {
  Layout layout = Layout::kAdjacency;
  // For kAdjacency: which CSR directions to build. Push needs out, pull
  // needs in, push-pull needs both (the extra cost of section 6.1.3).
  bool need_out = true;
  bool need_in = false;
  // Builder of the plain CSRs (kAdjacency, kSharded) and the grid. Compressed
  // lists ignore it: CompressedCsr::Build always radix-sorts the edge list.
  BuildMethod method = BuildMethod::kRadixSort;
  // Sort each per-vertex neighbor list (section 5.1's "sorted adjacency").
  bool sort_neighbors = false;
  // Grid dimension; 0 picks an automatic block count (~256 for large graphs,
  // fewer for small ones so blocks do not dwarf vertices).
  uint32_t grid_blocks = 0;
  // Declare the edge list symmetric (already undirected): the in-CSR then
  // aliases the out-CSR instead of being built — the paper's observation
  // that "when the graph is undirected ... push-pull induces no extra
  // pre-processing cost" (section 6.1.3).
  bool symmetric_input = false;
  // For kSharded: shard count; 0 picks ShardedGraph::AutoShards for the
  // current thread pool (two shards per worker).
  int num_shards = 0;
};

// The configuration selecting which of the paper's techniques a run
// enables. Every Run* entry point takes one; the engine's EdgeMap / Scan
// entry points (src/engine/dispatch.h) switch on it, and PrepareForRun maps
// it to the PrepareConfig the run needs.
struct RunConfig {
  Layout layout = Layout::kAdjacency;
  Direction direction = Direction::kPush;
  Sync sync = Sync::kAtomics;
  PushPullConfig pushpull;
  // Pre-processing method used when the run has to build a missing layout.
  BuildMethod method = BuildMethod::kRadixSort;
  // The handle's edge list is already symmetric (undirected): pull and
  // push-pull reuse the out-CSR as the in-CSR (paper section 6.1.3).
  bool symmetric_input = false;
  // For kSharded: shard count; 0 lets the handle pick two per worker.
  int shards = 0;
};

class GraphHandle {
 public:
  explicit GraphHandle(EdgeList graph) : graph_(std::move(graph)) {}

  const EdgeList& edges() const { return graph_; }
  VertexId num_vertices() const { return graph_.num_vertices(); }
  EdgeIndex num_edges() const { return graph_.num_edges(); }

  // Builds the structures `config` requests (skipping ones already built
  // with a compatible method) and adds their cost to preprocess_seconds().
  // Thread-safe and idempotent: each layout is guarded by a call_once, so
  // any number of threads may Prepare concurrently (against a frozen
  // handle) and the first caller per layout does the build while the rest
  // wait — the build cost is paid exactly once.
  void Prepare(const PrepareConfig& config);

  // Ends the build phase. The handle becomes an immutable snapshot safe to
  // share across ExecutionContexts; further InstallCsr calls abort.
  // Idempotent. Freeze excludes in-flight builds: it waits for any Prepare /
  // InstallCsr running on another thread to finish before the frozen flag
  // is published, so a mutation can never complete on a handle observed
  // frozen, and layouts installed before the freeze are ordered before any
  // post-freeze reader.
  void Freeze();
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  // Installs a CSR built elsewhere so Prepare() will not rebuild it: the
  // snapshot store's merged CSRs and egraph_cli's LoadAndBuild output.
  // `build_seconds` is what that build cost, added to preprocess_seconds()
  // to keep the paper's accounting honest. Build phase only.
  void InstallCsr(EdgeDirection direction, Csr csr, double build_seconds);

  bool has_out_csr() const { return out_csr_.has_value(); }
  bool has_in_csr() const {
    return in_csr_.has_value() ||
           (in_aliases_out_.load(std::memory_order_acquire) && has_out_csr());
  }
  bool has_grid() const { return grid_.has_value(); }
  bool has_sharded() const { return sharded_.has_value(); }
  bool has_compressed_out() const { return compressed_out_.has_value(); }
  bool has_compressed_in() const {
    return compressed_in_.has_value() ||
           (in_aliases_out_.load(std::memory_order_acquire) && has_compressed_out());
  }

  const Csr& out_csr() const { return *out_csr_; }
  const Csr& in_csr() const {
    return in_aliases_out_.load(std::memory_order_acquire) ? *out_csr_ : *in_csr_;
  }
  const Grid& grid() const { return *grid_; }
  const ShardedGraph& sharded() const { return *sharded_; }
  const CompressedCsr& compressed_out() const { return *compressed_out_; }
  const CompressedCsr& compressed_in() const {
    return in_aliases_out_.load(std::memory_order_acquire) ? *compressed_out_
                                                           : *compressed_in_;
  }

  // Cumulative pre-processing time across all Prepare and InstallCsr calls.
  double preprocess_seconds() const;

  // Shared striped-lock pool for Sync::kLocks execution. Safe to use from
  // concurrent queries: stripes are plain spinlocks, and sharing them
  // across queries costs contention, never correctness.
  StripedLocks& locks() { return locks_; }

  // Automatic grid dimension for a graph of `num_vertices` (the paper finds
  // 256x256 best at RMAT26/Twitter scale; smaller graphs shrink with it so
  // blocks hold >= ~1k vertices).
  static uint32_t AutoGridBlocks(VertexId num_vertices);

 private:
  // One flag per buildable layout.
  struct LayoutOnce {
    std::once_flag out;
    std::once_flag in;
    std::once_flag grid;
    std::once_flag compressed_out;
    std::once_flag compressed_in;
    std::once_flag sharded;
  };

  void CheckBuildPhase(const char* operation) const;
  void AddPreprocessSeconds(double seconds);

  EdgeList graph_;
  // Freeze-vs-build exclusion. InstallCsr and Prepare hold it SHARED for
  // their whole duration; Freeze takes it EXCLUSIVE before publishing
  // frozen_. Mutators do not exclude each other — the build phase is
  // single-owner by contract — the lock exists solely so a freeze cannot
  // land in the middle of an in-flight build.
  mutable std::shared_mutex build_mutex_;
  std::atomic<bool> frozen_{false};
  // Symmetric input: in-CSR == out-CSR.
  std::atomic<bool> in_aliases_out_{false};
  LayoutOnce once_;
  std::optional<Csr> out_csr_;
  std::optional<Csr> in_csr_;
  std::optional<Grid> grid_;
  std::optional<CompressedCsr> compressed_out_;
  std::optional<CompressedCsr> compressed_in_;
  std::optional<ShardedGraph> sharded_;
  mutable std::mutex stats_mutex_;  // guards preprocess_seconds_
  double preprocess_seconds_ = 0.0;
  StripedLocks locks_{1 << 14};
};

}  // namespace egraph

#endif  // SRC_ENGINE_GRAPH_HANDLE_H_
