#include "perfbench/src/bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "src/util/thread_pool.h"

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double index = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double x : samples) {
    total += x;
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t SpanLog::Add(const std::string& name, const std::string& layer, uint64_t start_ns,
                     uint64_t end_ns, int64_t parent, int64_t query_id) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({id, parent, name, layer, start_ns, end_ns, query_id});
  return id;
}

int64_t SpanLog::Open(const std::string& name, const std::string& layer, int64_t parent,
                      int64_t query_id) {
  return Add(name, layer, 0, 0, parent, query_id);
}

void SpanLog::Close(int64_t id, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_ || id < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].start_ns = start_ns;
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    const uint64_t begin = span.start_ns;
    const uint64_t end = std::max(span.start_ns, span.end_ns);
    // Covered part of [begin, end): the union of the children's intervals,
    // clipped to the span (serve children overlap one another).
    uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      uint64_t cursor = begin;
      for (const auto& [kid_begin, kid_end] : kids) {
        const uint64_t lo = std::max(kid_begin, cursor);
        const uint64_t hi = std::min(kid_end, end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[span.layer] += static_cast<double>(end - begin - covered) * 1e-9;
  }
  return self;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot write span log " + path);
  }
  std::fprintf(file, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(file,
                 "  {\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_ns\": %llu, \"end_ns\": %llu, \"query_id\": %lld}%s\n",
                 static_cast<long long>(span.id), static_cast<long long>(span.parent),
                 JsonEscape(span.name).c_str(), JsonEscape(span.layer).c_str(),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns),
                 static_cast<long long>(span.query_id), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);
}

namespace {
thread_local int64_t current_span = -1;
}  // namespace

int64_t CurrentSpan() { return current_span; }

ScopedSpan::ScopedSpan(SpanLog& log, const std::string& name, const std::string& layer)
    : log_(log), saved_parent_(current_span) {
  id_ = log_.Open(name, layer, saved_parent_);
  if (id_ >= 0) {
    current_span = id_;
  }
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  log_.Close(id_, start_ns_, NowNs());
  current_span = saved_parent_;
}

double ScopedSpan::Seconds() const { return SecondsBetween(start_ns_, NowNs()); }

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

void Report::PrintResult() const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              failed_ == 0 ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                JsonEscape(name).c_str(), value_unit.first,
                JsonEscape(value_unit.second).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

uint64_t L3Bytes() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<uint64_t>(bytes) : 0;
}

void PrintContext(const std::string& workload, bool traced) {
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"traced\": %s, \"nproc\": %u, "
      "\"l3_bytes\": %llu, \"eg_threads\": %d}}\n",
      JsonEscape(workload).c_str(), traced ? "true" : "false",
      std::thread::hardware_concurrency(), static_cast<unsigned long long>(L3Bytes()),
      egraph::ThreadPool::Get().num_threads());
  std::fflush(stdout);
}

}  // namespace perfbench
