#include "src/snapshot/delta.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph::snapshot {

namespace {

// Packs a pair for hash/sort keys. VertexId is 32-bit, so this is exact.
inline uint64_t PairKey(VertexId src, VertexId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

}  // namespace

std::vector<PairEffect> CompressUpdates(std::span<const EdgeUpdate> updates) {
  if (updates.empty()) {
    return {};
  }
  // Sort by (src, dst, stream position): groups each pair while keeping the
  // in-stream order that decides which inserts survive the last delete.
  std::vector<uint32_t> order(updates.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&updates](uint32_t a, uint32_t b) {
    const uint64_t ka = PairKey(updates[a].src, updates[a].dst);
    const uint64_t kb = PairKey(updates[b].src, updates[b].dst);
    return ka != kb ? ka < kb : a < b;
  });

  std::vector<PairEffect> effects;
  for (const uint32_t i : order) {
    const EdgeUpdate& u = updates[i];
    if (effects.empty() || effects.back().src != u.src || effects.back().dst != u.dst) {
      effects.push_back({u.src, u.dst, 0, false});
    }
    PairEffect& effect = effects.back();
    if (u.insert) {
      ++effect.adds;
    } else {
      effect.adds = 0;  // a delete wipes base copies AND earlier in-stream adds
      effect.delete_base = true;
    }
  }
  return effects;
}

std::vector<PairEffect> TransposeEffects(std::span<const PairEffect> effects) {
  std::vector<PairEffect> transposed(effects.begin(), effects.end());
  for (PairEffect& effect : transposed) {
    std::swap(effect.src, effect.dst);
  }
  std::sort(transposed.begin(), transposed.end(),
            [](const PairEffect& a, const PairEffect& b) {
              return PairKey(a.src, a.dst) < PairKey(b.src, b.dst);
            });
  return transposed;
}

VertexId UpdateVertexBound(std::span<const EdgeUpdate> updates) {
  VertexId bound = 0;
  for (const EdgeUpdate& u : updates) {
    bound = std::max(bound, std::max(u.src, u.dst) + 1);
  }
  return bound;
}

Csr MergeCsr(const Csr& base, std::span<const PairEffect> effects,
             VertexId num_vertices, MergeStats* stats) {
  assert(num_vertices >= base.num_vertices());
  Timer timer;
  const int64_t n = static_cast<int64_t>(num_vertices);
  const VertexId base_n = base.num_vertices();

  // Per-vertex effect ranges: effects are sorted by (src, dst), so vertex
  // v's slice is [first[v], first[v + 1]). Parallel binary search.
  std::vector<uint32_t> first(static_cast<size_t>(n) + 1);
  ParallelFor(0, n + 1, [&](int64_t v) {
    first[static_cast<size_t>(v)] = static_cast<uint32_t>(
        std::partition_point(effects.begin(), effects.end(),
                             [v](const PairEffect& e) {
                               return e.src < static_cast<VertexId>(v);
                             }) -
        effects.begin());
  });

  // Pass 1: new degree per vertex. Tombstoned copies are counted by binary
  // search over the (sorted) base slice. Both passes hand out fixed
  // 256-vertex chunks, so a hub's list stays with one worker.
  std::vector<EdgeIndex> offsets(static_cast<size_t>(n) + 1, 0);
  std::atomic<EdgeIndex> tombstoned{0};
  std::atomic<EdgeIndex> inserted{0};
  ParallelForChunks(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi, int) {
    EdgeIndex local_tomb = 0;
    EdgeIndex local_ins = 0;
    for (int64_t i = lo; i < hi; ++i) {
      const VertexId v = static_cast<VertexId>(i);
      const std::span<const VertexId> neighbors =
          v < base_n ? base.Neighbors(v) : std::span<const VertexId>{};
      EdgeIndex degree = neighbors.size();
      for (uint32_t e = first[i]; e < first[i + 1]; ++e) {
        const PairEffect& effect = effects[e];
        if (effect.delete_base) {
          const auto range = std::equal_range(neighbors.begin(), neighbors.end(), effect.dst);
          const EdgeIndex copies = static_cast<EdgeIndex>(range.second - range.first);
          degree -= copies;
          local_tomb += copies;
        }
        degree += effect.adds;
        local_ins += effect.adds;
      }
      offsets[static_cast<size_t>(i)] = degree;
    }
    tombstoned.fetch_add(local_tomb, std::memory_order_relaxed);
    inserted.fetch_add(local_ins, std::memory_order_relaxed);
  });

  // Pass 2: exclusive scan of degrees -> offsets.
  const EdgeIndex total = ParallelExclusiveScan(offsets);
  offsets[static_cast<size_t>(n)] = total;

  // Pass 3: fill. Untouched vertices are a straight copy of their base
  // slice; touched vertices run the two-pointer merge with the tombstone
  // filter. Both sides are dst-sorted, so the output is too.
  std::vector<VertexId> neighbors(total);
  ParallelForChunks(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi, int) {
    for (int64_t i = lo; i < hi; ++i) {
      const VertexId v = static_cast<VertexId>(i);
      const std::span<const VertexId> from =
          v < base_n ? base.Neighbors(v) : std::span<const VertexId>{};
      VertexId* out = neighbors.data() + offsets[static_cast<size_t>(i)];
      if (first[i] == first[i + 1]) {
        std::copy(from.begin(), from.end(), out);
        continue;
      }
      size_t b = 0;
      for (uint32_t e = first[i]; e < first[i + 1]; ++e) {
        const PairEffect& effect = effects[e];
        while (b < from.size() && from[b] < effect.dst) {
          *out++ = from[b++];
        }
        while (b < from.size() && from[b] == effect.dst) {
          if (!effect.delete_base) {
            *out++ = effect.dst;
          }
          ++b;
        }
        for (uint32_t a = 0; a < effect.adds; ++a) {
          *out++ = effect.dst;
        }
      }
      while (b < from.size()) {
        *out++ = from[b++];
      }
      assert(out == neighbors.data() + offsets[static_cast<size_t>(i) + 1]);
    }
  });

  Csr merged;
  merged.Init(num_vertices, std::move(offsets), std::move(neighbors), {});
  if (stats != nullptr) {
    stats->seconds = timer.Seconds();
    stats->edges_out = total;
    stats->tombstoned = tombstoned.load(std::memory_order_relaxed);
    stats->inserted = inserted.load(std::memory_order_relaxed);
  }
  return merged;
}

EdgeList ApplyUpdatesToEdgeList(const EdgeList& base,
                                std::span<const EdgeUpdate> updates) {
  const std::vector<PairEffect> effects = CompressUpdates(updates);
  // Sorted key array of tombstoned pairs; membership by binary search.
  std::vector<uint64_t> deleted;
  EdgeIndex adds = 0;
  for (const PairEffect& effect : effects) {
    if (effect.delete_base) {
      deleted.push_back(PairKey(effect.src, effect.dst));
    }
    adds += effect.adds;
  }
  EdgeList updated;
  updated.set_num_vertices(std::max(base.num_vertices(), UpdateVertexBound(updates)));
  updated.Reserve(base.num_edges() + adds);
  for (const Edge& edge : base.edges()) {
    if (deleted.empty() ||
        !std::binary_search(deleted.begin(), deleted.end(), PairKey(edge.src, edge.dst))) {
      updated.AddEdge(edge.src, edge.dst);
    }
  }
  for (const PairEffect& effect : effects) {
    for (uint32_t a = 0; a < effect.adds; ++a) {
      updated.AddEdge(effect.src, effect.dst);
    }
  }
  return updated;
}

EdgeList EdgeListFromCsr(const Csr& csr) {
  EdgeList edges;
  edges.set_num_vertices(csr.num_vertices());
  std::vector<Edge>& out = edges.mutable_edges();
  out.resize(csr.num_edges());
  ParallelFor(0, static_cast<int64_t>(csr.num_vertices()), [&](int64_t v) {
    const EdgeIndex lo = csr.offsets()[static_cast<size_t>(v)];
    const std::span<const VertexId> neighbors = csr.Neighbors(static_cast<VertexId>(v));
    for (size_t i = 0; i < neighbors.size(); ++i) {
      out[lo + i] = {static_cast<VertexId>(v), neighbors[i]};
    }
  });
  return edges;
}

std::vector<EdgeUpdate> MirrorUpdates(std::span<const EdgeUpdate> updates) {
  std::vector<EdgeUpdate> mirrored;
  mirrored.reserve(updates.size() * 2);
  for (const EdgeUpdate& u : updates) {
    mirrored.push_back(u);
    mirrored.push_back({u.dst, u.src, u.insert});
  }
  return mirrored;
}

std::vector<EdgeUpdate> ReadUpdateFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("snapshot: cannot read update file " + path);
  }
  std::vector<EdgeUpdate> updates;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string op;
    if (!(tokens >> op)) {
      continue;  // blank / comment-only line
    }
    EdgeUpdate update;
    if (op == "add" || op == "+") {
      update.insert = true;
    } else if (op == "del" || op == "-") {
      update.insert = false;
    } else {
      throw std::runtime_error("snapshot: unknown update op '" + op + "' at " + path +
                               ":" + std::to_string(line_number));
    }
    int64_t src = -1;
    int64_t dst = -1;
    if (!(tokens >> src >> dst) || src < 0 || dst < 0 ||
        src > static_cast<int64_t>(kInvalidVertex) - 1 ||
        dst > static_cast<int64_t>(kInvalidVertex) - 1) {
      throw std::runtime_error("snapshot: malformed endpoints at " + path + ":" +
                               std::to_string(line_number));
    }
    update.src = static_cast<VertexId>(src);
    update.dst = static_cast<VertexId>(dst);
    updates.push_back(update);
  }
  return updates;
}

}  // namespace egraph::snapshot
