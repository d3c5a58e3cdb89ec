#include "src/io/storage_sim.h"

#include <sys/stat.h>

#include <cstdio>
#include <stdexcept>
#include <thread>

namespace egraph {

struct ThrottledFileReader::Impl {
  std::FILE* file = nullptr;
};

ThrottledFileReader::ThrottledFileReader(const std::string& path, StorageMedium medium)
    : impl_(new Impl), medium_(medium) {
  impl_->file = std::fopen(path.c_str(), "rb");
  if (impl_->file == nullptr) {
    delete impl_;
    throw std::runtime_error("cannot open " + path);
  }
  struct stat st {};
  if (::fstat(::fileno(impl_->file), &st) == 0) {
    file_bytes_ = static_cast<uint64_t>(st.st_size);
  }
}

ThrottledFileReader::~ThrottledFileReader() {
  if (impl_->file != nullptr) {
    std::fclose(impl_->file);
  }
  delete impl_;
}

void ThrottledFileReader::ThrottleTo(uint64_t target_bytes) {
  if (medium_.bandwidth_bytes_per_sec <= 0.0) {
    return;
  }
  if (!started_) {
    // The transfer clock starts at the first throttled read, not at
    // construction, so header parsing does not eat into the budget.
    clock_.Reset();
    started_ = true;
  }
  const double available_at =
      static_cast<double>(target_bytes) / medium_.bandwidth_bytes_per_sec;
  const double now = clock_.Seconds();
  if (now < available_at) {
    const double wait = available_at - now;
    stall_seconds_ += wait;
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

size_t ThrottledFileReader::Read(void* dst, size_t bytes) {
  const size_t got = std::fread(dst, 1, bytes, impl_->file);
  if (got != bytes && std::ferror(impl_->file) != 0) {
    throw std::runtime_error("I/O error in throttled read");
  }
  bytes_delivered_ += got;
  ThrottleTo(bytes_delivered_);
  return got;
}

}  // namespace egraph
