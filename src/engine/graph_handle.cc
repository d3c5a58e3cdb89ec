#include "src/engine/graph_handle.h"

#include <cstdio>
#include <cstdlib>

#include "src/obs/phase.h"
#include "src/util/parallel.h"

namespace egraph {

uint32_t GraphHandle::AutoGridBlocks(VertexId num_vertices) {
  // Target ~4k vertices per block (so a block's metadata is a few tens of
  // KB, well inside any LLC), capped at the paper's 256 blocks. At the
  // paper's RMAT-26 scale this yields the 256x256 grid they found best.
  uint32_t blocks = num_vertices / 4096;
  if (blocks < 4) {
    blocks = 4;
  }
  if (blocks > 256) {
    blocks = 256;
  }
  return blocks;
}

void GraphHandle::CheckBuildPhase(const char* operation) const {
  if (frozen()) {
    std::fprintf(stderr,
                 "GraphHandle::%s called on a frozen handle; mutation is only "
                 "legal during the build phase (before Freeze()).\n",
                 operation);
    std::abort();
  }
}

void GraphHandle::AddPreprocessSeconds(double seconds) {
  std::lock_guard<std::mutex> guard(stats_mutex_);
  preprocess_seconds_ += seconds;
}

double GraphHandle::preprocess_seconds() const {
  std::lock_guard<std::mutex> guard(stats_mutex_);
  return preprocess_seconds_;
}

void GraphHandle::Freeze() {
  // Exclusive acquisition waits out every in-flight Prepare / InstallCsr
  // holding the lock shared: a mutation that began before the
  // freeze completes before frozen_ is published, and one that begins after
  // observes frozen_ (its shared_lock orders it after this critical
  // section) and aborts in CheckBuildPhase. Idempotent.
  std::unique_lock<std::shared_mutex> build_guard(build_mutex_);
  frozen_.store(true, std::memory_order_release);
}

void GraphHandle::Prepare(const PrepareConfig& config) {
  // Shared: concurrent Prepare calls still overlap (the per-layout
  // call_once guards do the real serialization), but a Freeze() cannot land
  // mid-build — it waits for this scope to exit.
  std::shared_lock<std::shared_mutex> build_guard(build_mutex_);
  obs::ScopedPhase phase(obs::Phase::kPreprocess);
  // Plain-CSR build path, shared by kAdjacency and kSharded (shards index
  // into the plain CSRs rather than materializing per-shard copies).
  auto build_adjacency = [&](bool need_out, bool need_in) {
    if (config.symmetric_input && need_in) {
      // Undirected input: the incoming lists are the outgoing lists.
      in_aliases_out_.store(true, std::memory_order_release);
    }
    const bool build_out = need_out || (config.symmetric_input && need_in);
    if (build_out) {
      std::call_once(once_.out, [&] {
        if (out_csr_.has_value()) {
          return;  // installed by InstallCsr; nothing to build
        }
        BuildStats stats;
        out_csr_ = BuildCsr(graph_, EdgeDirection::kOut, config.method, &stats);
        double seconds = stats.seconds;
        if (config.sort_neighbors) {
          seconds += out_csr_->SortNeighborLists();
        }
        AddPreprocessSeconds(seconds);
      });
    }
    if (need_in && !config.symmetric_input) {
      std::call_once(once_.in, [&] {
        if (in_csr_.has_value()) {
          return;
        }
        BuildStats stats;
        in_csr_ = BuildCsr(graph_, EdgeDirection::kIn, config.method, &stats);
        double seconds = stats.seconds;
        if (config.sort_neighbors) {
          seconds += in_csr_->SortNeighborLists();
        }
        AddPreprocessSeconds(seconds);
      });
    }
  };
  switch (config.layout) {
    case Layout::kEdgeArray:
      // Nothing to build: the input layout is the computation layout.
      break;
    case Layout::kAdjacency:
      build_adjacency(config.need_out, config.need_in);
      break;
    case Layout::kGrid: {
      std::call_once(once_.grid, [&] {
        if (grid_.has_value()) {
          return;
        }
        GridOptions options;
        options.num_blocks =
            config.grid_blocks != 0 ? config.grid_blocks : AutoGridBlocks(num_vertices());
        options.method = config.method;
        BuildStats stats;
        grid_ = BuildGrid(graph_, options, &stats);
        AddPreprocessSeconds(stats.seconds);
      });
      break;
    }
    case Layout::kCompressed: {
      // Same direction/symmetry semantics as kAdjacency: push needs the out
      // stream, pull needs in, symmetric input makes the in stream alias the
      // out stream. The build sorts the edge list itself — it never reads
      // out_csr_/in_csr_, which a concurrent Prepare(kAdjacency) may be
      // mid-construction on (the per-layout call_once flags do not order
      // cross-layout accesses). Its cost lands in preprocess_seconds().
      if (config.symmetric_input && config.need_in) {
        in_aliases_out_.store(true, std::memory_order_release);
      }
      auto encode = [&](EdgeDirection direction) -> CompressedCsr {
        double seconds = 0.0;
        CompressedCsr compressed = CompressedCsr::Build(graph_, direction, &seconds);
        AddPreprocessSeconds(seconds);
        return compressed;
      };
      const bool build_out =
          config.need_out || (config.symmetric_input && config.need_in);
      if (build_out) {
        std::call_once(once_.compressed_out, [&] {
          if (compressed_out_.has_value()) {
            return;
          }
          compressed_out_ = encode(EdgeDirection::kOut);
        });
      }
      if (config.need_in && !config.symmetric_input) {
        std::call_once(once_.compressed_in, [&] {
          if (compressed_in_.has_value()) {
            return;
          }
          compressed_in_ = encode(EdgeDirection::kIn);
        });
      }
      break;
    }
    case Layout::kSharded: {
      // The ownership map sits on top of the plain CSRs: the out-CSR is
      // always needed (the scatter phase and the shard cost scores both read
      // it), the in-CSR only when pull or push-pull will run. The partition
      // cost lands in preprocess_seconds like every other layout build.
      build_adjacency(/*need_out=*/true, config.need_in);
      std::call_once(once_.sharded, [&] {
        if (sharded_.has_value()) {
          return;
        }
        const int shards =
            config.num_shards > 0
                ? config.num_shards
                : ShardedGraph::AutoShards(ThreadPool::Current().num_threads());
        const Csr* in = config.need_in ? &in_csr() : nullptr;
        sharded_ = ShardedGraph::Build(out_csr(), in, shards);
        AddPreprocessSeconds(sharded_->build_seconds());
      });
      break;
    }
  }
}

void GraphHandle::InstallCsr(EdgeDirection direction, Csr csr, double build_seconds) {
  std::shared_lock<std::shared_mutex> build_guard(build_mutex_);
  CheckBuildPhase("InstallCsr");
  if (direction == EdgeDirection::kOut) {
    out_csr_ = std::move(csr);
  } else {
    in_csr_ = std::move(csr);
  }
  AddPreprocessSeconds(build_seconds);
}

}  // namespace egraph
