// NewestRing: a bounded, thread-safe collection that keeps the newest
// `capacity` entries and counts the ones it overwrote. The trace sink (one
// entry per algorithm run) and the slow-query log (one per slow served
// query) both keep their entries in one: a user asks about the most recent
// run or offender, so the ring keeps the newest rather than the oldest, and
// the drop count says when a report is not complete.
//
// Record() takes a mutex. Its callers record once per run or query, never
// per round or edge.
#ifndef SRC_OBS_RING_H_
#define SRC_OBS_RING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace egraph::obs {

template <typename T>
class NewestRing {
 public:
  explicit NewestRing(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  NewestRing(const NewestRing&) = delete;
  NewestRing& operator=(const NewestRing&) = delete;

  void Record(const T& entry) {
    std::lock_guard<std::mutex> guard(mutex_);
    ++recorded_;
    if (entries_.size() < capacity_) {
      entries_.push_back(entry);
      return;
    }
    // Full: overwrite the oldest slot in place (no O(capacity) shift, no
    // allocation churn in a long-lived serving process).
    entries_[head_] = entry;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  // Retained entries, oldest to newest.
  std::vector<T> Snapshot() const {
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<T> out;
    out.reserve(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i) {
      out.push_back(entries_[(head_ + i) % entries_.size()]);
    }
    return out;
  }

  // Drops retained entries; recorded()/dropped() keep counting.
  void Clear() {
    std::lock_guard<std::mutex> guard(mutex_);
    entries_.clear();
    head_ = 0;
  }

  // Clears retained entries AND zeroes the recorded/dropped accounting.
  void Reset() {
    std::lock_guard<std::mutex> guard(mutex_);
    entries_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
  }

  size_t capacity() const { return capacity_; }

  // Entries recorded since construction (or the last Reset), including
  // those since overwritten.
  int64_t recorded() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return recorded_;
  }

  // Entries overwritten by newer ones since construction (or the last Reset).
  int64_t dropped() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return dropped_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<T> entries_;  // ring storage, at most capacity_ entries
  size_t head_ = 0;         // index of the oldest retained entry
  int64_t recorded_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace egraph::obs

#endif  // SRC_OBS_RING_H_
