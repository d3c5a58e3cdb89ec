#include "bench/bench_common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "src/gen/rmat.h"
#include "src/graph/stats.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/timeline.h"
#include "src/util/env.h"
#include "src/util/thread_pool.h"

namespace egraph::bench {
namespace {

// Experiment id of the first PrintBanner call; names the trace report.
std::string g_experiment_slug;
// Full experiment title (first banner line) for the BENCH json header.
std::string g_experiment_title;

std::string Slugify(const std::string& text) {
  std::string slug;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '-') {
      slug.push_back('-');
    }
  }
  while (!slug.empty() && slug.back() == '-') {
    slug.pop_back();
  }
  return slug.empty() ? std::string("bench") : slug;
}

void EmitTraceAtExit() {
  const std::string path =
      EnvString("EG_TRACE_FILE", g_experiment_slug + ".trace.json");
  if (obs::WriteProcessReport(path, g_experiment_slug)) {
    std::printf("trace: %s\n", path.c_str());
  }
}

void EmitTimelineAtExit() {
  const std::string path =
      EnvString("EG_TIMELINE_FILE", g_experiment_slug + ".timeline.json");
  if (obs::WriteTimelineTrace(path)) {
    std::printf("timeline: %s\n", path.c_str());
    std::fputs(obs::TimelineSummaryTableString().c_str(), stdout);
  }
}

// One result cell: all samples recorded under the same (cell, dataset) key.
struct ResultCell {
  std::string name;
  std::string dataset;
  std::vector<double> samples;
};

std::mutex g_results_mutex;
std::vector<ResultCell> g_results;

double Median(std::vector<double> sorted) {
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

double Stddev(const std::vector<double>& samples) {
  if (samples.size() < 2) {
    return 0.0;
  }
  double mean = 0.0;
  for (const double s : samples) {
    mean += s;
  }
  mean /= static_cast<double>(samples.size());
  double var = 0.0;
  for (const double s : samples) {
    var += (s - mean) * (s - mean);
  }
  return std::sqrt(var / static_cast<double>(samples.size() - 1));
}

obs::JsonValue MachineInfoJson() {
  obs::JsonValue machine = obs::JsonValue::Object();
  machine.Set("hardware_concurrency",
              static_cast<int64_t>(std::thread::hardware_concurrency()));
#if defined(__unix__) || defined(__APPLE__)
  utsname uts{};
  if (uname(&uts) == 0) {
    machine.Set("sysname", std::string(uts.sysname));
    machine.Set("release", std::string(uts.release));
    machine.Set("machine", std::string(uts.machine));
  }
#endif
  return machine;
}

void EmitBenchJsonAtExit() {
  std::lock_guard<std::mutex> guard(g_results_mutex);
  if (g_results.empty()) {
    return;  // bench recorded nothing (e.g. aborted before any cell)
  }
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("schema", "egraph-bench-v1");
  doc.Set("experiment", g_experiment_slug);
  doc.Set("title", g_experiment_title);

  obs::JsonValue config = obs::JsonValue::Object();
  config.Set("eg_scale", static_cast<int64_t>(Scale()));
  config.Set("threads", static_cast<int64_t>(ThreadPool::Get().num_threads()));
  doc.Set("config", std::move(config));
  doc.Set("machine", MachineInfoJson());

  obs::JsonValue cells = obs::JsonValue::Array();
  for (const ResultCell& cell : g_results) {
    std::vector<double> sorted = cell.samples;
    std::sort(sorted.begin(), sorted.end());
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("name", cell.name);
    entry.Set("dataset", cell.dataset);
    entry.Set("reps", static_cast<int64_t>(sorted.size()));
    entry.Set("median", Median(sorted));
    entry.Set("min", sorted.front());
    entry.Set("max", sorted.back());
    entry.Set("stddev", Stddev(cell.samples));
    obs::JsonValue samples = obs::JsonValue::Array();
    for (const double s : cell.samples) {
      samples.Append(s);
    }
    entry.Set("samples", std::move(samples));
    cells.Append(std::move(entry));
  }
  doc.Set("cells", std::move(cells));

  std::string dir = EnvString("EG_BENCH_DIR", "");
  if (!dir.empty() && dir.back() != '/') {
    dir.push_back('/');
  }
  const std::string path = dir + "BENCH_" + g_experiment_slug + ".json";
  if (obs::WriteReportFile(path, doc.Dump(1) + "\n")) {
    std::printf("bench results: %s\n", path.c_str());
  }
}

}  // namespace

int Scale() { return EnvBenchScale(); }

EdgeList Rmat(int delta) { return DatasetRmat(Scale() + delta); }

EdgeList RmatUnscrambled(int delta) {
  RmatOptions options;
  options.scale = Scale() + delta;
  options.scramble_ids = false;
  return GenerateRmat(options);
}

EdgeList Twitter() { return DatasetTwitter(Scale()); }

EdgeList UsRoad() { return DatasetUsRoad(Scale()); }

void PrintBanner(const std::string& experiment, const std::string& paper_expectation,
                 const std::string& dataset_description) {
  if (g_experiment_slug.empty()) {
    g_experiment_slug = Slugify(experiment);
    g_experiment_title = experiment;
    if (EnvInt64("EG_TRACE", 1) != 0) {
      std::atexit(EmitTraceAtExit);
    }
    if (EnvInt64("EG_BENCH_JSON", 1) != 0) {
      std::atexit(EmitBenchJsonAtExit);
    }
    if (obs::TimelineEnableFromEnv()) {
      std::atexit(EmitTimelineAtExit);
    }
  }
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("dataset: %s\n", dataset_description.c_str());
  std::printf("threads: %d  (EG_SCALE=%d)\n", ThreadPool::Get().num_threads(), Scale());
  std::printf("================================================================\n");
}

void RecordResult(const std::string& cell, double seconds, const std::string& dataset) {
  std::lock_guard<std::mutex> guard(g_results_mutex);
  for (ResultCell& existing : g_results) {
    if (existing.name == cell && existing.dataset == dataset) {
      existing.samples.push_back(seconds);
      return;
    }
  }
  g_results.push_back(ResultCell{cell, dataset, {seconds}});
}

std::string Sec(double seconds) { return Table::FormatSeconds(seconds); }

VertexId GoodSource(const EdgeList& graph) {
  const std::vector<uint32_t> degrees = OutDegrees(graph);
  VertexId best = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (degrees[v] > degrees[best]) {
      best = v;
    }
  }
  return best;
}

}  // namespace egraph::bench
