// Concurrent fixed-size bitmap: the dense frontier representation. Supports
// racy reads and atomic test-and-set, the two operations EdgeMap needs.
#ifndef SRC_UTIL_BITMAP_H_
#define SRC_UTIL_BITMAP_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace egraph {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(int64_t bits);

  void Resize(int64_t bits);

  int64_t size() const { return bits_; }

  // Clears all bits (parallel over words).
  void Clear();

  bool Get(int64_t index) const {
    return (words_[static_cast<size_t>(index >> 6)].load(std::memory_order_relaxed) >>
            (index & 63)) &
           1ULL;
  }

  // Raw 64-bit word (bits [word_index*64, word_index*64+64)). Lets read-only
  // scans batch membership tests: load the word once, test bits with plain
  // shifts while consecutive queries stay inside it (sorted adjacency lists
  // make that the common case in pull mode).
  uint64_t Word(int64_t word_index) const {
    return words_[static_cast<size_t>(word_index)].load(std::memory_order_relaxed);
  }

  int64_t num_words() const { return static_cast<int64_t>(words_.size()); }

  // Sets the bit with an atomic fetch_or, so threads may set bits of the
  // same word concurrently.
  void Set(int64_t index) {
    words_[static_cast<size_t>(index >> 6)].fetch_or(1ULL << (index & 63),
                                                     std::memory_order_relaxed);
  }

  // Atomically sets the bit; returns true iff this call flipped it 0 -> 1.
  bool TestAndSet(int64_t index) {
    const uint64_t mask = 1ULL << (index & 63);
    const uint64_t old = words_[static_cast<size_t>(index >> 6)].fetch_or(
        mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  // Number of set bits (parallel).
  int64_t Count() const;

  // Appends the indices of all set bits to `out` (parallel-friendly order is
  // not guaranteed; output is sorted).
  void ToVector(std::vector<uint32_t>& out) const;

 private:
  int64_t bits_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace egraph

#endif  // SRC_UTIL_BITMAP_H_
