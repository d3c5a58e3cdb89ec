#include "src/engine/frontier.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"

namespace egraph {

Frontier Frontier::None(VertexId n) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = 0;
  f.has_sparse_ = true;
  return f;
}

Frontier Frontier::Single(VertexId n, VertexId v) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = 1;
  f.has_sparse_ = true;
  f.sparse_.push_back(v);
  return f;
}

Frontier Frontier::All(VertexId n) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = n;
  f.has_dense_ = true;
  f.dense_.Resize(n);
  ParallelFor(0, n, [&f](int64_t v) { f.dense_.Set(v); });
  return f;
}

Frontier Frontier::FromVector(VertexId n, std::vector<VertexId> vertices) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = static_cast<int64_t>(vertices.size());
  f.has_sparse_ = true;
  f.sparse_ = std::move(vertices);
  return f;
}

Frontier Frontier::FromBitmap(VertexId n, Bitmap bitmap, int64_t count) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = count;
  f.has_dense_ = true;
  f.dense_ = std::move(bitmap);
  return f;
}

void Frontier::EnsureDense() {
  if (has_dense_) {
    return;
  }
  obs::EngineCounters::Get().frontier_to_dense.Add(1);
  obs::TimelineSpan span("engine", "frontier.to_dense", count_);
  dense_.Resize(num_vertices_);
  ParallelFor(0, static_cast<int64_t>(sparse_.size()),
              [this](int64_t i) { dense_.Set(sparse_[static_cast<size_t>(i)]); });
  has_dense_ = true;
}

void Frontier::EnsureSparse() {
  if (has_sparse_) {
    return;
  }
  obs::EngineCounters::Get().frontier_to_sparse.Add(1);
  obs::TimelineSpan span("engine", "frontier.to_sparse", count_);
  dense_.ToVector(sparse_);
  has_sparse_ = true;
}

std::vector<Frontier> Frontier::SplitByRanges(const std::vector<VertexId>& boundaries) {
  EnsureSparse();
  const size_t parts = boundaries.size() - 1;
  std::vector<std::vector<VertexId>> buckets(parts);
  // Active vertices are grouped per range serially: the caller (batch
  // scheduler round turnover) is itself inside per-query bookkeeping, and
  // frontiers here are per-partition-sized, not graph-sized.
  size_t p = 0;
  for (const VertexId v : sparse_) {
    if (v >= boundaries[p] && v < boundaries[p + 1]) {
      buckets[p].push_back(v);
      continue;
    }
    const auto it = std::upper_bound(boundaries.begin(), boundaries.end(), v);
    p = static_cast<size_t>(it - boundaries.begin()) - 1;
    buckets[p].push_back(v);
  }
  std::vector<Frontier> result;
  result.reserve(parts);
  for (size_t i = 0; i < parts; ++i) {
    result.push_back(FromVector(num_vertices_, std::move(buckets[i])));
  }
  return result;
}

}  // namespace egraph
