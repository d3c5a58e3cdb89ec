// Parallel MSD radix sort over fixed-size records with integer keys — the
// paper's fastest adjacency-list construction technique (section 3.2,
// following Zagha & Blelloch). The sort returns a sorted copy and never
// writes its input, so a builder sorts the caller's edge list without first
// copying it. Keys are consumed `digit_bits` at a time (default 8, i.e. 256
// buckets): a parallel counting pass splits the input by the most
// significant digit and scatters it straight into the output, with
// sequential-write locality per bucket; the buckets are then finished
// independently in parallel by an LSD sort over the remaining digits. The
// sort is stable: records with equal keys keep their input order.
#ifndef SRC_LAYOUT_RADIX_SORT_H_
#define SRC_LAYOUT_RADIX_SORT_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/graph/types.h"
#include "src/util/parallel.h"

namespace egraph {

// A weighted edge as the builders sort it: the weight rides along with its
// edge through the sort.
struct WeightedEdge {
  Edge edge;
  float weight;
};

// Key width, in bits, of keys that lie in [0, num_keys).
inline int RadixKeyBits(uint64_t num_keys) {
  return num_keys <= 1 ? 1 : std::bit_width(num_keys - 1);
}

namespace radix_internal {

// Stable LSD radix sort of bucket[0, size) over key bits [0, top_shift) (the
// bits above are equal within a top-level bucket), ping-ponging through
// `scratch`, which holds at least `size` records. One counting pass fills
// the histograms of every digit. When top_shift is not a multiple of
// digit_bits, the last digit reaches into the top digit's constant bits.
template <typename Record, typename KeyFn>
void SortBucketLsd(Record* bucket, Record* scratch, size_t size, int top_shift,
                   int digit_bits, const KeyFn& key) {
  const size_t radix = size_t{1} << digit_bits;
  const uint64_t mask = radix - 1;
  const int num_digits = (top_shift + digit_bits - 1) / digit_bits;
  std::vector<size_t> counts(static_cast<size_t>(num_digits) * radix, 0);
  for (size_t i = 0; i < size; ++i) {
    const uint64_t k = key(bucket[i]);
    for (int d = 0; d < num_digits; ++d) {
      ++counts[static_cast<size_t>(d) * radix + ((k >> (d * digit_bits)) & mask)];
    }
  }
  Record* src = bucket;
  Record* dst = scratch;
  for (int d = 0; d < num_digits; ++d) {
    const int shift = d * digit_bits;
    size_t* cursor = counts.data() + static_cast<size_t>(d) * radix;
    size_t running = 0;
    for (size_t digit = 0; digit < radix; ++digit) {
      const size_t count = cursor[digit];
      cursor[digit] = running;
      running += count;
    }
    for (size_t i = 0; i < size; ++i) {
      dst[cursor[(key(src[i]) >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != bucket) {
    std::copy(src, src + size, bucket);
  }
}

}  // namespace radix_internal

// Returns records record_at(0), ..., record_at(n - 1) stably sorted by
// key(record), a key of at most `key_bits` bits (1 to 64). `record_at`
// lets a caller zip several arrays into one record (an edge and its weight)
// without materializing them first. `digit_bits` in [1, 16] selects the
// radix (ablation knob; the paper uses 8).
//
// Memory: the output plus one scratch block that the top-level buckets
// share, sized the pool width times the largest bucket and capped at n.
// The block is allocated here, on the calling thread; each bucket finishes
// in the slice of whichever pool slot claims it.
template <typename Record, typename RecordAt, typename KeyFn>
std::vector<Record> ParallelRadixSort(size_t n, const RecordAt& record_at, int key_bits,
                                      const KeyFn& key, int digit_bits = 8) {
  std::vector<Record> sorted(n);
  if (n == 0) {
    return sorted;
  }
  key_bits = std::clamp(key_bits, 1, 64);
  const size_t radix = size_t{1} << digit_bits;
  const uint64_t mask = radix - 1;
  // The top digit is the key's highest digit_bits bits, so every key width
  // gets the full radix of top-level buckets.
  const int top_shift = std::max(0, key_bits - digit_bits);

  // --- Top-level parallel counting pass over the most significant digit ---
  const int slots = ThreadPool::Current().num_threads();
  const int num_chunks = slots * 4;
  const size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  std::vector<std::vector<uint64_t>> histograms(static_cast<size_t>(num_chunks),
                                                std::vector<uint64_t>(radix, 0));
  ParallelFor(0, num_chunks, [&](int64_t c) {
    const size_t lo = std::min(n, static_cast<size_t>(c) * chunk_size);
    const size_t hi = std::min(n, lo + chunk_size);
    auto& hist = histograms[static_cast<size_t>(c)];
    for (size_t i = lo; i < hi; ++i) {
      ++hist[(static_cast<uint64_t>(key(record_at(i))) >> top_shift) & mask];
    }
  });

  // bucket_start[d]: output offset of digit d; histograms[c][d] becomes the
  // write cursor of chunk c within digit d (a stable, race-free scatter).
  std::vector<uint64_t> bucket_start(radix + 1, 0);
  size_t largest = 0;
  {
    uint64_t running = 0;
    for (size_t d = 0; d < radix; ++d) {
      bucket_start[d] = running;
      for (int c = 0; c < num_chunks; ++c) {
        const uint64_t count = histograms[static_cast<size_t>(c)][d];
        histograms[static_cast<size_t>(c)][d] = running;
        running += count;
      }
      largest = std::max<size_t>(largest, running - bucket_start[d]);
    }
    bucket_start[radix] = running;
  }

  ParallelFor(0, num_chunks, [&](int64_t c) {
    const size_t lo = std::min(n, static_cast<size_t>(c) * chunk_size);
    const size_t hi = std::min(n, lo + chunk_size);
    auto& cursor = histograms[static_cast<size_t>(c)];
    for (size_t i = lo; i < hi; ++i) {
      const Record record = record_at(i);
      sorted[cursor[(static_cast<uint64_t>(key(record)) >> top_shift) & mask]++] = record;
    }
  });

  if (top_shift == 0 || largest < 2) {
    return sorted;
  }

  // --- Per-bucket LSD over the remaining digits, one scratch slice per slot ---
  // Each slot claims buckets through a shared cursor and finishes them in its
  // own slice of the block.
  const size_t num_slices = std::min<size_t>(static_cast<size_t>(slots), n / largest);
  std::vector<Record> scratch(num_slices * largest);
  std::atomic<size_t> next{0};
  ParallelForGrain(0, static_cast<int64_t>(num_slices), /*grain=*/1, [&](int64_t slice) {
    Record* slice_begin = scratch.data() + static_cast<size_t>(slice) * largest;
    for (size_t d = next.fetch_add(1, std::memory_order_relaxed); d < radix;
         d = next.fetch_add(1, std::memory_order_relaxed)) {
      const size_t lo = bucket_start[d];
      const size_t hi = bucket_start[d + 1];
      if (hi - lo > 1) {
        radix_internal::SortBucketLsd(sorted.data() + lo, slice_begin, hi - lo, top_shift,
                                      digit_bits, key);
      }
    }
  });
  return sorted;
}

// Returns a stably sorted copy of `records` (see above).
template <typename Record, typename KeyFn>
std::vector<Record> ParallelRadixSort(std::span<const Record> records, int key_bits,
                                      const KeyFn& key, int digit_bits = 8) {
  return ParallelRadixSort<Record>(
      records.size(), [records](size_t i) { return records[i]; }, key_bits, key,
      digit_bits);
}

// The edges of a weighted `graph`, each with its weight, stably sorted by
// key(edge) (see above).
template <typename KeyFn>
std::vector<WeightedEdge> RadixSortWeightedEdges(const EdgeList& graph, int key_bits,
                                                 const KeyFn& key, int digit_bits = 8) {
  const std::vector<Edge>& edges = graph.edges();
  const std::vector<float>& weights = graph.weights();
  return ParallelRadixSort<WeightedEdge>(
      edges.size(), [&](size_t i) { return WeightedEdge{edges[i], weights[i]}; }, key_bits,
      [&key](const WeightedEdge& r) { return key(r.edge); }, digit_bits);
}

// Offsets of a key-sorted record sequence: records [offsets[k], offsets[k + 1])
// are exactly those with key k, for k in [0, num_keys), and offsets[num_keys]
// is the record count. One streaming boundary pass, O(num_keys + n).
template <typename Records, typename KeyFn>
std::vector<EdgeIndex> OffsetsFromSorted(const Records& records, uint64_t num_keys,
                                         const KeyFn& key) {
  std::vector<EdgeIndex> offsets(static_cast<size_t>(num_keys) + 1);
  const int64_t n = static_cast<int64_t>(records.size());
  if (n == 0) {
    return offsets;  // all zero
  }
  ParallelFor(0, n, [&](int64_t i) {
    const int64_t k = static_cast<int64_t>(key(records[static_cast<size_t>(i)]));
    const int64_t k_prev =
        i == 0 ? -1 : static_cast<int64_t>(key(records[static_cast<size_t>(i) - 1]));
    for (int64_t v = k_prev + 1; v <= k; ++v) {
      offsets[static_cast<size_t>(v)] = static_cast<EdgeIndex>(i);
    }
  });
  const int64_t k_last = static_cast<int64_t>(key(records[static_cast<size_t>(n) - 1]));
  for (int64_t v = k_last + 1; v <= static_cast<int64_t>(num_keys); ++v) {
    offsets[static_cast<size_t>(v)] = static_cast<EdgeIndex>(n);
  }
  return offsets;
}

}  // namespace egraph

#endif  // SRC_LAYOUT_RADIX_SORT_H_
