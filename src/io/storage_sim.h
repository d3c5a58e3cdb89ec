// Simulated storage media. The paper's Table 3 compares loading from an SSD
// (380 MB/s) and a hard disk (100 MB/s); this environment has neither, so a
// throttled reader delivers bytes on the schedule a medium of the configured
// bandwidth would. Crucially, the schedule is *absolute*: chunk k becomes
// available at `start + delivered_bytes / bandwidth`, so compute performed
// between chunk reads overlaps the simulated transfer exactly as real I/O
// (DMA + page cache readahead) would overlap computation.
#ifndef SRC_IO_STORAGE_SIM_H_
#define SRC_IO_STORAGE_SIM_H_

#include <cstdint>
#include <string>

#include "src/util/timer.h"

namespace egraph {

struct StorageMedium {
  const char* name;
  double bandwidth_bytes_per_sec;  // <= 0 means unthrottled (in-memory)
};

// The paper's two media plus an unthrottled baseline.
inline constexpr StorageMedium kMediumMemory{"memory", 0.0};
inline constexpr StorageMedium kMediumSsd{"ssd", 380.0 * 1024 * 1024};
inline constexpr StorageMedium kMediumHdd{"hdd", 100.0 * 1024 * 1024};

// Reads a file in chunks, sleeping as needed so that cumulative delivery
// never exceeds the medium's bandwidth. Not thread-safe.
class ThrottledFileReader {
 public:
  // Throws std::runtime_error if the file cannot be opened.
  ThrottledFileReader(const std::string& path, StorageMedium medium);
  ~ThrottledFileReader();

  ThrottledFileReader(const ThrottledFileReader&) = delete;
  ThrottledFileReader& operator=(const ThrottledFileReader&) = delete;

  // Reads up to `bytes`; blocks until the medium "has delivered" them.
  // Returns bytes actually read (0 at EOF). Throws on I/O error.
  size_t Read(void* dst, size_t bytes);

  // Size of the underlying file in bytes (from fstat at open).
  uint64_t file_bytes() const { return file_bytes_; }

  // Seconds the reader spent blocked waiting for the medium.
  double stall_seconds() const { return stall_seconds_; }

 private:
  void ThrottleTo(uint64_t target_bytes);

  struct Impl;
  Impl* impl_;
  StorageMedium medium_;
  Timer clock_;
  uint64_t bytes_delivered_ = 0;
  uint64_t file_bytes_ = 0;
  double stall_seconds_ = 0.0;
  bool started_ = false;
};

}  // namespace egraph

#endif  // SRC_IO_STORAGE_SIM_H_
