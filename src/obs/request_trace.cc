#include "src/obs/request_trace.h"

#include <algorithm>
#include <cstdio>

namespace egraph::obs {

std::string FormatSlowQuery(const SlowQueryRecord& record) {
  const RequestTrace& t = record.trace;
  char buffer[320];
  const int n = std::snprintf(
      buffer, sizeof(buffer),
      "slow query %lld: %s total %.3fms = admission %.3fms + queue %.3fms + "
      "dispatch %.3fms + execute %.3fms (worker %d, epoch %llu, delta-depth %lld)",
      static_cast<long long>(record.id), record.kind.c_str(),
      t.TotalSeconds() * 1e3, t.AdmissionSeconds() * 1e3,
      t.QueueWaitSeconds() * 1e3, t.DispatchSeconds() * 1e3,
      t.ExecuteSeconds() * 1e3, record.worker,
      static_cast<unsigned long long>(t.epoch),
      static_cast<long long>(t.delta_depth_at_pin));
  // snprintf returns the untruncated length; never read past the buffer.
  return std::string(buffer, n < 0 ? 0 : std::min(static_cast<size_t>(n), sizeof(buffer) - 1));
}

SlowQueryLog::SlowQueryLog(double threshold_seconds, size_t capacity)
    : threshold_seconds_(threshold_seconds), ring_(capacity) {}

bool SlowQueryLog::MaybeRecord(const SlowQueryRecord& record) {
  if (record.trace.TotalSeconds() < threshold_seconds_) {
    return false;
  }
  ring_.Record(record);
  return true;
}

}  // namespace egraph::obs
