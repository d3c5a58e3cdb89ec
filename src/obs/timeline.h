// Per-worker timeline tracing: what each thread was doing, when. Every
// thread that emits gets its own fixed-capacity event buffer (single-writer,
// so the hot path is one enabled check, two steady-clock reads and one store
// — no locks, no allocation, no shared cache lines); a full buffer drops the
// newest events and counts them instead of reallocating. Completed spans and
// instant events export as Chrome-trace-event JSON (open in Perfetto or
// chrome://tracing) plus a derived per-worker utilization / steal /
// critical-path summary — the instruments that show load imbalance, steal
// storms and loader stalls unfolding over time, which the aggregate counters
// in metrics.h cannot.
//
// The emission core is header-inline (C++17 inline variables) so that
// egraph_util's thread pool can emit pool spans without a link dependency on
// the obs library; only the exporters and the summary live in timeline.cc.
//
// The timeline is off by default (EG_TIMELINE turns it on); a disabled span
// site costs one relaxed load, an enabled one adds the clock reads.
//
// Concurrency contract: emission is safe from any number of threads
// concurrently (each writes only its own buffer) and Snapshot() may run
// concurrently with emission (events publish via release/acquire on the
// buffer size). Reset() and SetCapacityPerThread() are cold-path calls that
// must not race with emission — call them outside parallel regions.
#ifndef SRC_OBS_TIMELINE_H_
#define SRC_OBS_TIMELINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace egraph::obs {

enum class TimelineEventKind : uint8_t {
  kSpan = 0,     // start_ns..start_ns+dur_ns (Chrome "X" complete event)
  kInstant = 1,  // point event at start_ns (Chrome "i")
};

struct TimelineEvent {
  const char* cat;    // static-lifetime category: "pool", "engine", ...
  const char* name;   // static-lifetime event name
  uint64_t start_ns;  // steady-clock ticks
  uint64_t dur_ns;    // 0 for instants
  int64_t arg;        // event-defined payload (chunk size, bytes, iteration)
  TimelineEventKind kind;
};

namespace timeline_internal {

inline constexpr size_t kDefaultEventsPerThread = size_t{1} << 15;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One buffer per emitting thread, process lifetime (threads may come and go;
// their buffers stay exportable). Only the owning thread writes events and
// bumps size/dropped; size is the release/acquire publication point. Events
// stay uninitialized until written: only the published prefix is ever read,
// so a new thread pays for the pages it writes, not for zeroing them all.
struct ThreadBuffer {
  explicit ThreadBuffer(size_t capacity)
      : events(std::make_unique_for_overwrite<TimelineEvent[]>(capacity)), capacity(capacity) {}

  std::unique_ptr<TimelineEvent[]> events;  // fixed capacity; never reallocated
  size_t capacity;
  std::atomic<uint64_t> size{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<int> worker_id{-1};  // pool worker id, -1 for foreign threads
  int tid = 0;                     // registration order; Chrome trace tid
  std::string label;               // guarded by the registry mutex
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<size_t> capacity{kDefaultEventsPerThread};
};

inline BufferRegistry& GetBufferRegistry() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

inline std::atomic<bool> g_timeline_enabled{false};

inline ThreadBuffer* RegisterThisThread() {
  BufferRegistry& registry = GetBufferRegistry();
  // Allocated before the lock, so new threads do not queue behind each
  // other's allocations.
  auto buffer =
      std::make_unique<ThreadBuffer>(registry.capacity.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> guard(registry.mutex);
  buffer->tid = static_cast<int>(registry.buffers.size());
  registry.buffers.push_back(std::move(buffer));
  return registry.buffers.back().get();
}

inline ThreadBuffer* Buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    buffer = RegisterThisThread();
  }
  return buffer;
}

inline void Emit(const char* cat, const char* name, uint64_t start_ns,
                 uint64_t dur_ns, int64_t arg, TimelineEventKind kind) {
  ThreadBuffer* buffer = Buffer();
  const uint64_t n = buffer->size.load(std::memory_order_relaxed);
  if (n >= buffer->capacity) {
    // Bounded: count the drop, never grow (growth would be an allocation on
    // the hot path and would skew exactly the timings being measured).
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events[n] = TimelineEvent{cat, name, start_ns, dur_ns, arg, kind};
  buffer->size.store(n + 1, std::memory_order_release);
}

}  // namespace timeline_internal

class Timeline {
 public:
  static bool Enabled() {
    return timeline_internal::g_timeline_enabled.load(std::memory_order_relaxed);
  }

  static void SetEnabled(bool enabled) {
    timeline_internal::g_timeline_enabled.store(enabled, std::memory_order_relaxed);
  }

  // Per-thread buffer capacity, in events. Applies to buffers registered
  // after the call; Reset() re-sizes existing buffers to the new capacity.
  static void SetCapacityPerThread(size_t events) {
    timeline_internal::GetBufferRegistry().capacity.store(events == 0 ? 1 : events,
                                                          std::memory_order_relaxed);
  }

  // Names the calling thread's track in the exported trace (ExecutionContext
  // scopes pass the context's name, such as "serve.w0").
  static void SetThreadLabel(const std::string& label) {
    if (!Enabled()) {
      return;
    }
    timeline_internal::ThreadBuffer* buffer = timeline_internal::Buffer();
    timeline_internal::BufferRegistry& registry = timeline_internal::GetBufferRegistry();
    std::lock_guard<std::mutex> guard(registry.mutex);
    buffer->label = label;
  }

  // Tags the calling thread with its pool worker id; called by the pool at
  // region entry (cheap: one tls lookup and a compare once registered).
  static void NoteWorker(int worker_id) {
    if (!Enabled()) {
      return;
    }
    timeline_internal::ThreadBuffer* buffer = timeline_internal::Buffer();
    if (buffer->worker_id.load(std::memory_order_relaxed) != worker_id) {
      buffer->worker_id.store(worker_id, std::memory_order_relaxed);
    }
  }

  // Empties every buffer (and applies a pending capacity change). Must not
  // race with emission.
  static void Reset() {
    timeline_internal::BufferRegistry& registry = timeline_internal::GetBufferRegistry();
    std::lock_guard<std::mutex> guard(registry.mutex);
    const size_t capacity = registry.capacity.load(std::memory_order_relaxed);
    for (auto& buffer : registry.buffers) {
      if (buffer->capacity != capacity) {
        buffer->events = std::make_unique_for_overwrite<TimelineEvent[]>(capacity);
        buffer->capacity = capacity;
      }
      buffer->size.store(0, std::memory_order_relaxed);
      buffer->dropped.store(0, std::memory_order_relaxed);
    }
  }

  // Events dropped across all buffers since the last Reset.
  static uint64_t TotalDropped() {
    timeline_internal::BufferRegistry& registry = timeline_internal::GetBufferRegistry();
    std::lock_guard<std::mutex> guard(registry.mutex);
    uint64_t total = 0;
    for (const auto& buffer : registry.buffers) {
      total += buffer->dropped.load(std::memory_order_relaxed);
    }
    return total;
  }

  struct ThreadSnapshot {
    int tid = 0;
    int worker_id = -1;
    std::string label;
    uint64_t dropped = 0;
    size_t capacity = 0;
    std::vector<TimelineEvent> events;
  };

  // Copies every buffer's published events. Safe concurrently with emission;
  // an in-flight span simply isn't included yet.
  static std::vector<ThreadSnapshot> Snapshot() {
    std::vector<ThreadSnapshot> out;
    timeline_internal::BufferRegistry& registry = timeline_internal::GetBufferRegistry();
    std::lock_guard<std::mutex> guard(registry.mutex);
    out.reserve(registry.buffers.size());
    for (const auto& buffer : registry.buffers) {
      ThreadSnapshot snapshot;
      snapshot.tid = buffer->tid;
      snapshot.worker_id = buffer->worker_id.load(std::memory_order_relaxed);
      snapshot.label = buffer->label;
      snapshot.dropped = buffer->dropped.load(std::memory_order_relaxed);
      snapshot.capacity = buffer->capacity;
      const uint64_t n = buffer->size.load(std::memory_order_acquire);
      snapshot.events.assign(buffer->events.get(), buffer->events.get() + n);
      out.push_back(std::move(snapshot));
    }
    return out;
  }
};

// RAII scoped span: records [construction, destruction) on the calling
// thread's track. Costs one relaxed load when the timeline is disabled.
class TimelineSpan {
 public:
  TimelineSpan(const char* cat, const char* name, int64_t arg = 0)
      : cat_(cat),
        name_(name),
        arg_(arg),
        start_ns_(Timeline::Enabled() ? timeline_internal::NowNs() : 0) {}

  ~TimelineSpan() {
    if (start_ns_ != 0) {
      timeline_internal::Emit(cat_, name_, start_ns_,
                              timeline_internal::NowNs() - start_ns_, arg_,
                              TimelineEventKind::kSpan);
    }
  }

  TimelineSpan(const TimelineSpan&) = delete;
  TimelineSpan& operator=(const TimelineSpan&) = delete;

 private:
  const char* cat_;
  const char* name_;
  int64_t arg_;
  uint64_t start_ns_;
};

// Manual span plumbing for begin/end call pairs that cannot hold an RAII
// object (TraceSession iterations). TimelineNow() returns 0 when disabled;
// TimelineEndSpan is a no-op for a 0 start.
inline uint64_t TimelineNow() {
  return Timeline::Enabled() ? timeline_internal::NowNs() : 0;
}

inline void TimelineEndSpan(const char* cat, const char* name, uint64_t start_ns,
                            int64_t arg = 0) {
  if (start_ns != 0 && Timeline::Enabled()) {
    timeline_internal::Emit(cat, name, start_ns,
                            timeline_internal::NowNs() - start_ns, arg,
                            TimelineEventKind::kSpan);
  }
}

inline void TimelineInstant(const char* cat, const char* name, int64_t arg = 0) {
  if (Timeline::Enabled()) {
    timeline_internal::Emit(cat, name, timeline_internal::NowNs(), 0, arg,
                            TimelineEventKind::kInstant);
  }
}

// ---------------------------------------------------------------------------
// Exporters and derived summary (defined in timeline.cc, obs library only —
// nothing in egraph_util references these).

class JsonValue;

// Applies EG_TIMELINE (enable when nonzero) and EG_TIMELINE_EVENTS (per-
// thread capacity) from the environment; returns whether tracing is enabled.
bool TimelineEnableFromEnv();

struct TimelineWorkerSummary {
  int tid = 0;
  int worker_id = -1;  // -1: not a pool worker (a labelled foreign thread)
  std::string label;
  uint64_t events = 0;
  uint64_t dropped = 0;
  int64_t chunks = 0;        // pool run+steal spans executed
  int64_t steals = 0;        // pool steal spans executed
  double busy_seconds = 0.0;   // sum of pool run+steal span durations
  double steal_seconds = 0.0;  // stolen-chunk share of busy
  double idle_seconds = 0.0;   // sum of pool idle span durations
};

struct TimelineSummary {
  double wall_seconds = 0.0;           // max event end - min event start
  double critical_path_seconds = 0.0;  // max per-worker busy: a lower bound
                                       // on any schedule of the same chunks
  double utilization = 0.0;            // sum busy / (wall * workers)
  double imbalance = 0.0;              // max busy / mean busy (1.0 = even)
  uint64_t dropped_events = 0;         // events lost to full buffers, all
                                       // tracks — nonzero means the summary
                                       // undercounts everything above
  std::vector<TimelineWorkerSummary> workers;
};

TimelineSummary SummarizeTimeline();

// {"traceEvents": [...], "displayTimeUnit": "ms", "egraphSummary": {...}} —
// the object form of the Chrome trace event format, with thread_name
// metadata per track; Perfetto and chrome://tracing both accept it and
// ignore the extra summary key.
JsonValue TimelineToChromeJson();

JsonValue TimelineSummaryToJson(const TimelineSummary& summary);

// Writes TimelineToChromeJson() to `path`. Returns false (and prints to
// stderr) when the file cannot be written.
bool WriteTimelineTrace(const std::string& path);

// Human-readable per-worker table of the summary.
std::string TimelineSummaryTableString();

}  // namespace egraph::obs

#endif  // SRC_OBS_TIMELINE_H_
