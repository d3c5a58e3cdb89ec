// twitter-analytics, road-traversal and twitter-compressed: the paper's
// end-to-end unit (load + pre-processing + algorithm) over one graph, with
// each algorithm run in the configuration the workload prescribes.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/src/workload_config.h"
#include "perfbench/src/workloads.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/reference.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/advisor.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/graph/stats.h"
#include "src/io/loader.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using egraph::BfsResult;
using egraph::Direction;
using egraph::EdgeList;
using egraph::GraphHandle;
using egraph::Layout;
using egraph::PrepareConfig;
using egraph::RunConfig;
using egraph::Sync;
using egraph::VertexId;

enum class Kernel { kBfs, kSssp, kWcc, kPagerank };

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kBfs:
      return "bfs";
    case Kernel::kSssp:
      return "sssp";
    case Kernel::kWcc:
      return "wcc";
    case Kernel::kPagerank:
      return "pagerank";
  }
  return "?";
}

// One timed Run* call of a pass.
struct Step {
  Kernel kernel = Kernel::kBfs;
  VertexId source = 0;
  RunConfig config;
};

RunConfig Configure(const egraph::Recommendation& rec) {
  RunConfig config;
  config.layout = rec.layout;
  config.direction = rec.direction;
  config.sync = rec.sync;
  return config;
}

RunConfig Compressed(Direction direction, Sync sync) {
  RunConfig config;
  config.layout = Layout::kCompressed;
  config.direction = direction;
  config.sync = sync;
  return config;
}

// The Run* calls of one pass, in order.
std::vector<Step> PlanPass(const std::string& workload, const egraph::GraphStats& stats,
                           const std::vector<VertexId>& sources) {
  egraph::MachineTraits machine;
  machine.workers = egraph::ThreadPool::Get().num_threads();
  std::vector<Step> pass;
  if (workload == "twitter-analytics") {
    const RunConfig bfs = Configure(Advise(egraph::TraitsBfs(), stats, machine));
    for (VertexId source : sources) {
      pass.push_back({Kernel::kBfs, source, bfs});
    }
    pass.push_back({Kernel::kWcc, 0, Configure(Advise(egraph::TraitsWcc(), stats, machine))});
    pass.push_back(
        {Kernel::kPagerank, 0, Configure(Advise(egraph::TraitsPagerank(), stats, machine))});
  } else if (workload == "road-traversal") {
    const RunConfig bfs = Configure(Advise(egraph::TraitsBfs(), stats, machine));
    const RunConfig sssp = Configure(Advise(egraph::TraitsSssp(), stats, machine));
    for (VertexId source : sources) {
      pass.push_back({Kernel::kBfs, source, bfs});
    }
    pass.push_back({Kernel::kSssp, sources.front(), sssp});
    pass.push_back(
        {Kernel::kPagerank, 0, Configure(Advise(egraph::TraitsPagerank(), stats, machine))});
  } else if (workload == "twitter-compressed") {
    const RunConfig bfs = Compressed(Direction::kPushPull, Sync::kAtomics);
    for (VertexId source : sources) {
      pass.push_back({Kernel::kBfs, source, bfs});
    }
    pass.push_back({Kernel::kPagerank, 0, Compressed(Direction::kPull, Sync::kLockFree)});
  } else {
    throw std::runtime_error("unknown analytics workload: " + workload);
  }
  return pass;
}

// The layout builds a configuration needs, one Prepare each so every build
// is timed on its own. Repeats across configurations are no-ops in the
// handle (call_once), so they are listed once.
std::vector<std::pair<std::string, PrepareConfig>> LayoutBuilds(const std::vector<Step>& pass) {
  std::vector<std::pair<std::string, PrepareConfig>> builds;
  auto add = [&builds](const std::string& name, PrepareConfig config) {
    for (const auto& [existing, unused] : builds) {
      if (existing == name) {
        return;
      }
    }
    builds.push_back({name, config});
  };
  for (const Step& step : pass) {
    const Direction direction = step.config.direction;
    const bool out = direction != Direction::kPull;
    const bool in = direction != Direction::kPush;
    switch (step.config.layout) {
      case Layout::kEdgeArray:
        break;
      case Layout::kAdjacency:
        if (out) add("out_csr", {.layout = Layout::kAdjacency, .need_out = true, .need_in = false});
        if (in) add("in_csr", {.layout = Layout::kAdjacency, .need_out = false, .need_in = true});
        break;
      case Layout::kGrid:
        add("grid", {.layout = Layout::kGrid});
        break;
      case Layout::kCompressed:
        if (out) {
          add("compressed_out", {.layout = Layout::kCompressed, .need_out = true, .need_in = false});
        }
        if (in) {
          add("compressed_in", {.layout = Layout::kCompressed, .need_out = false, .need_in = true});
        }
        break;
      case Layout::kSharded:
        add("sharded", {.layout = Layout::kSharded, .need_out = out, .need_in = in});
        break;
    }
  }
  return builds;
}

struct Prepared {
  std::unique_ptr<GraphHandle> handle;
  std::vector<Step> pass;
  double setup_seconds = 0.0;
  double load_seconds = 0.0;
};

// Set-up as a user pays it: load the edge file, ask the advisor, build
// every layout the pass needs, freeze.
Prepared SetUp(const RunOptions& options, const std::vector<VertexId>& sources,
               SpanLog& spans) {
  ScopedSpan setup(spans, "bench.setup", "bench");
  Prepared prepared;
  {
    ScopedSpan load(spans, "io.load", "io");
    EdgeList edges =
        egraph::LoadEdges(options.input_dir + "/graph.bin", egraph::kMediumMemory);
    prepared.handle = std::make_unique<GraphHandle>(std::move(edges));
    prepared.load_seconds = load.Seconds();
  }
  {
    ScopedSpan advise(spans, "engine.advise", "engine");
    prepared.pass =
        PlanPass(options.workload, egraph::ComputeStats(prepared.handle->edges()), sources);
  }
  for (const auto& [name, config] : LayoutBuilds(prepared.pass)) {
    ScopedSpan build(spans, "layout." + name, "layout");
    prepared.handle->Prepare(config);
  }
  prepared.handle->Freeze();
  prepared.setup_seconds = setup.Seconds();
  return prepared;
}

// Bytes of every layout the handle holds, edge array included.
double HandleBytes(const GraphHandle& handle) {
  const EdgeList& edges = handle.edges();
  double bytes = static_cast<double>(edges.edges().size() * sizeof(egraph::Edge) +
                                     edges.weights().size() * sizeof(float));
  if (handle.has_out_csr()) {
    bytes += static_cast<double>(handle.out_csr().MemoryBytes());
  }
  if (handle.has_in_csr() && &handle.in_csr() != &handle.out_csr()) {
    bytes += static_cast<double>(handle.in_csr().MemoryBytes());
  }
  if (handle.has_grid()) {
    bytes += static_cast<double>(handle.grid().MemoryBytes());
  }
  if (handle.has_compressed_out()) {
    bytes += static_cast<double>(handle.compressed_out().MemoryBytes());
  }
  if (handle.has_compressed_in() && &handle.compressed_in() != &handle.compressed_out()) {
    bytes += static_cast<double>(handle.compressed_in().MemoryBytes());
  }
  return bytes;
}

// Refuses a twitter graph whose edge array plus plain out- and in-CSR would
// fit in the L3: a cache-resident run must not pass as the ledger.
void RequireLargerThanL3(const RunOptions& options, const GraphHandle& handle) {
  if (options.workload == "road-traversal" || options.allow_cache_resident) {
    return;
  }
  const double n = handle.num_vertices();
  const double m = static_cast<double>(handle.num_edges());
  const double csr = (n + 1) * sizeof(uint64_t) + m * sizeof(VertexId);
  const double working_set = m * sizeof(egraph::Edge) + 2 * csr;
  const double l3 = static_cast<double>(L3Bytes());
  if (l3 <= 0 || working_set <= l3) {
    throw std::runtime_error("refusing " + options.workload + ": edge array plus CSRs (" +
                             std::to_string(working_set / 1048576.0) +
                             " MiB) fit in the reported L3 (" +
                             std::to_string(l3 / 1048576.0) + " MiB)");
  }
}

// Outputs kept from the last pass for the checks.
struct Outputs {
  std::vector<VertexId> bfs_parent;  // from sources[0]
  std::vector<float> sssp_dist;      // from sources[0]
  std::vector<VertexId> wcc_label;
  std::vector<float> rank;
};

// Runs one pass, timing each Run* call; returns the pass's summed call time.
// Outputs from `check_source` (and of the whole-graph kernels) are kept.
double RunPass(GraphHandle& handle, const std::vector<Step>& pass, VertexId check_source,
               egraph::ExecutionContext& ctx, SpanLog& spans, EngineLedger& ledger,
               Outputs& outputs, Report& report) {
  double pass_seconds = 0.0;
  for (const Step& step : pass) {
    report.Attempt();
    const bool keep = step.source == check_source;
    ScopedSpan call(spans, std::string("engine.") + KernelName(step.kernel), "engine");
    double seconds = 0.0;
    switch (step.kernel) {
      case Kernel::kBfs: {
        BfsResult run = egraph::RunBfs(handle, step.source, step.config, ctx);
        seconds = call.Seconds();
        ledger.Record("bfs", seconds, run.stats);
        if (keep) outputs.bfs_parent = std::move(run.parent);
        break;
      }
      case Kernel::kSssp: {
        egraph::SsspResult run = egraph::RunSssp(handle, step.source, step.config, ctx);
        seconds = call.Seconds();
        ledger.Record("sssp", seconds, run.stats);
        if (keep) outputs.sssp_dist = std::move(run.dist);
        break;
      }
      case Kernel::kWcc: {
        egraph::WccResult run = egraph::RunWcc(handle, step.config, ctx);
        seconds = call.Seconds();
        ledger.Record("wcc", seconds, run.stats);
        outputs.wcc_label = std::move(run.label);
        break;
      }
      case Kernel::kPagerank: {
        egraph::PagerankOptions pagerank;
        pagerank.iterations = kPagerankIterations;
        egraph::PagerankResult run = egraph::RunPagerank(handle, pagerank, step.config, ctx);
        seconds = call.Seconds();
        ledger.Record("pagerank", seconds, run.stats);
        outputs.rank = std::move(run.rank);
        break;
      }
    }
    pass_seconds += seconds;
  }
  return pass_seconds;
}

// Traced runs only: one more pass on a private pool of kParallelProbeThreads
// (capped at the hardware's), so the per-layer report shows what the
// kernels gain from the cores the measured single-threaded passes leave
// idle. Its outputs are not checked; its calls are not counted as attempts.
void ProbeParallel(GraphHandle& handle, const std::vector<Step>& pass, SpanLog& spans,
                   Report& report) {
  egraph::ExecutionContextOptions context_options;
  context_options.name = "perfbench.parallel";
  context_options.num_threads = static_cast<int>(
      std::min<unsigned>(kParallelProbeThreads, std::max(1u, std::thread::hardware_concurrency())));
  egraph::ExecutionContext ctx(context_options);
  ScopedSpan probe(spans, "bench.parallel_probe", "bench");
  EngineLedger ledger;
  Outputs unchecked;
  Report uncounted;
  RunPass(handle, pass, egraph::kInvalidVertex, ctx, spans, ledger, unchecked, uncounted);
  for (const char* kernel : {"bfs", "sssp", "wcc", "pagerank"}) {
    report.Set(std::string("engine.") + kernel + ".parallel_call_s",
               Median(ledger.CallSeconds(kernel)), "s");
  }
  report.Set("engine.parallel_threads", context_options.num_threads, "count");
}

// Each check returns an empty string, or what disagreed with the reference.
std::string CheckBfs(const EdgeList& graph, VertexId source, const std::vector<VertexId>& parent) {
  const std::vector<uint32_t> level = egraph::RefBfsLevels(graph, source);
  constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
  int64_t bad = parent.size() == level.size() && parent[source] == source ? 0 : 1;
  for (VertexId v = 0; bad == 0 && v < parent.size(); ++v) {
    const bool reached = parent[v] != egraph::kInvalidVertex;
    if (reached != (level[v] != kUnreached)) {
      ++bad;
    } else if (reached && v != source &&
               (parent[v] >= level.size() || level[parent[v]] + 1 != level[v])) {
      ++bad;
    }
  }
  return bad == 0 ? "" : "bfs from " + std::to_string(source) + " disagrees with RefBfsLevels";
}

std::string CheckSssp(const EdgeList& graph, VertexId source, const std::vector<float>& dist) {
  const std::vector<float> ref = egraph::RefDijkstra(graph, source);
  bool ok = dist.size() == ref.size();
  for (size_t v = 0; ok && v < dist.size(); ++v) {
    if (std::isinf(ref[v]) || std::isinf(dist[v])) {
      ok = std::isinf(ref[v]) && std::isinf(dist[v]);
    } else {
      ok = std::abs(dist[v] - ref[v]) <= 1e-4f * std::max(1.0f, ref[v]);
    }
  }
  return ok ? "" : "sssp from " + std::to_string(source) + " disagrees with RefDijkstra";
}

std::string CheckWcc(const EdgeList& graph, const std::vector<VertexId>& label) {
  return label == egraph::RefWccLabels(graph) ? "" : "wcc labels disagree with RefWccLabels";
}

std::string CheckPagerank(const EdgeList& graph, const std::vector<float>& rank) {
  const std::vector<float> ref =
      egraph::RefPagerank(graph, kPagerankIterations, egraph::PagerankOptions{}.damping);
  double l1 = rank.size() == ref.size() ? 0.0 : 1.0;
  for (size_t v = 0; v < rank.size() && v < ref.size(); ++v) {
    l1 += std::abs(static_cast<double>(rank[v]) - ref[v]);
  }
  return l1 <= 1e-3 ? "" : "pagerank L1 distance to RefPagerank is " + std::to_string(l1);
}

}  // namespace

void RunAnalytics(const RunOptions& options, SpanLog& spans, Report& report) {
  const std::vector<VertexId> sources = ReadSources(options.input_dir + "/sources.txt");
  if (sources.empty()) {
    throw std::runtime_error("no sources in " + options.input_dir);
  }

  // Each set-up is followed by its share of the measured seconds, so one
  // run samples several freshly built handles rather than one. Whole passes
  // only (at least one), as many as come nearest to the share.
  std::vector<double> setup_seconds;
  std::vector<double> load_seconds;
  EngineLedger ledger;
  Outputs outputs;
  Prepared prepared;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    prepared = Prepared{};  // free the previous handle before loading again
    // Hand its pages back to the OS: otherwise how much of it stays in the
    // malloc arenas depends on thread timing, and peak_rss_mb with it.
    malloc_trim(0);
    prepared = SetUp(options, sources, spans);
    setup_seconds.push_back(prepared.setup_seconds);
    load_seconds.push_back(prepared.load_seconds);
    if (repeat == 0) {
      RequireLargerThanL3(options, *prepared.handle);
    }
    ScopedSpan measure(spans, "bench.measure", "bench");
    const uint64_t start_ns = NowNs();
    double pass_seconds = 0.0;
    do {
      pass_seconds = RunPass(*prepared.handle, prepared.pass, sources.front(),
                             egraph::ExecutionContext::Default(), spans, ledger, outputs, report);
    } while (SecondsBetween(start_ns, NowNs()) + pass_seconds / 2 <=
             options.seconds / kSetupRepeats);
  }
  GraphHandle& handle = *prepared.handle;
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate

  {
    // The sequential references are independent: run them side by side.
    ScopedSpan check(spans, "bench.check", "bench");
    const EdgeList& graph = handle.edges();
    const VertexId source = sources.front();
    std::vector<std::future<std::string>> checks;
    if (!outputs.bfs_parent.empty()) {
      checks.push_back(std::async(std::launch::async,
                                  [&] { return CheckBfs(graph, source, outputs.bfs_parent); }));
    }
    if (!outputs.sssp_dist.empty()) {
      checks.push_back(std::async(std::launch::async,
                                  [&] { return CheckSssp(graph, source, outputs.sssp_dist); }));
    }
    if (!outputs.wcc_label.empty()) {
      checks.push_back(
          std::async(std::launch::async, [&] { return CheckWcc(graph, outputs.wcc_label); }));
    }
    if (!outputs.rank.empty()) {
      checks.push_back(
          std::async(std::launch::async, [&] { return CheckPagerank(graph, outputs.rank); }));
    }
    for (std::future<std::string>& check_result : checks) {
      const std::string problem = check_result.get();
      if (!problem.empty()) {
        report.Fail(problem);
      }
    }
  }

  // algo_s is one pass's Run* time, built from the per-kernel medians so
  // every call of the run contributes.
  std::map<std::string, int> calls_per_pass;
  for (const Step& step : prepared.pass) {
    ++calls_per_pass[KernelName(step.kernel)];
  }
  double algo = 0.0;
  for (const auto& [kernel, count] : calls_per_pass) {
    algo += count * Median(ledger.CallSeconds(kernel));
  }
  const double setup = Median(setup_seconds);
  report.Set("setup_s", setup, "s");
  report.Set("algo_s", algo, "s");
  report.Set("e2e_s", setup + algo, "s");
  report.Set("pagerank_s", Median(ledger.CallSeconds("pagerank")), "s");
  report.Set("peak_rss_mb", peak_rss_mb, "MiB");

  const double load = Median(load_seconds);
  const double file_bytes = static_cast<double>(handle.num_edges()) *
                            (sizeof(egraph::Edge) + (handle.edges().has_weights() ? 4 : 0));
  report.Set("io.load_s", load, "s");
  report.Set("io.load_gbps", load > 0 ? file_bytes / load / 1e9 : 0.0, "GB/s");
  report.Set("layout.bytes_per_edge", HandleBytes(handle) / static_cast<double>(handle.num_edges()),
             "count");
  ledger.Fill(report);
  if (spans.enabled()) {
    ProbeParallel(handle, prepared.pass, spans, report);
    ProbeLayouts(handle.edges(), spans, report);
  }
}

}  // namespace perfbench
