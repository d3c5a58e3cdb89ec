// egraph_cli: command-line front end to the whole library. Subcommands:
//
//   generate  --type=rmat|twitter|road|uniform --scale=N [--weights]
//             [--seed=S] --out=FILE
//   convert   --from=snap|mm|text|binary --to=binary|text IN OUT
//   stats     FILE                       print Table-1-style statistics
//   serve     --queries=FILE --concurrency=N [--threads-per-query=K]
//             [--queue-capacity=M] [--symmetrize]
//             [--updates=FILE] [--update-batch=N]
//             [--stats-out=FILE] [--stats-interval-ms=N] [--slow-query-ms=N]
//             [--layout=...] [--direction=...] [--sync=...] [--shards=S]
//             FILE
//   run       --algo=bfs|wcc|sssp|pagerank|spmv|kcore|triangles
//             [--layout=adjacency|compressed|edge-array|grid|sharded]
//             [--direction=push|pull|push-pull] [--sync=atomics|locks|lock-free]
//             [--shards=S] [--method=radix|count|dynamic] [--source=V] [--iterations=N]
//             [--medium=memory|ssd|hdd] [--chunk-mb=N]
//             [--advisor] [--numa-nodes=K] [--memory-budget-mb=N] [--workers=W]
//             [--metrics] [--metrics-json=FILE]
//             [--timeline=FILE]
//             FILE
//
// `serve` freezes the loaded graph into an immutable snapshot and executes
// the query file (one `<algo> [source]` per line) on N concurrent workers,
// each with its own ExecutionContext — the library's serving mode. WCC
// queries need --symmetrize (adjacency WCC expects an undirected list).
// `serve --updates=FILE` serves against a SnapshotStore instead of a single
// frozen handle: the update stream (`add|del SRC DST` per line) is applied
// in --update-batch-sized batches interleaved with query submission, each
// batch refrozen into a new epoch by the background merge thread, and every
// query runs against the epoch it pinned at submit time (printed per
// result). With --symmetrize the updates are mirrored so the graph stays
// undirected. Streaming mode serves adjacency-layout queries.
// `serve --stats-out=FILE` runs a background StatsSampler that rewrites FILE
// (Prometheus text exposition format) and FILE.json every --stats-interval-ms
// (default 1000) with the full metrics registry — per-query-kind
// queue-wait/execute/total latency histograms — plus live gauges: queue
// depth, in-flight queries, rejection counts, and (with --updates) the
// snapshot store's epoch, refreeze backlog, chain length and retained bytes.
// A final sample is written after the drain. `serve --slow-query-ms=N`
// retains every query whose submit-to-completion latency reaches N ms and
// prints its full phase breakdown (admission / queue wait / dispatch /
// execute) after the run.
// `--layout=sharded` runs the sharded execution substrate: the CSR vertex
// space is split into --shards contiguous shards (0 = two per worker), each
// EdgeMap round applies shard-local updates directly and routes cross-shard
// updates through per-(src,dst)-shard aggregation buffers flushed in
// cache-line batches — no striped locks on the push path. Shard traffic
// shows up in the shard.* counters and the shard.local_ratio gauge.
// `run --advisor` lets the paper's section-9 roadmap pick the configuration
// (--workers tells it the worker count; defaults to the pool size).
// Every run prints the end-to-end breakdown (load / preprocess / algorithm).
// `--metrics` appends the observability tables (phase breakdown, engine
// counters, histograms); `--metrics-json=FILE` writes the full JSON process
// report (use `-` for stdout). `--timeline=FILE` (or EG_TIMELINE=1 in the
// environment) records per-worker timeline spans across the whole run and
// writes a Chrome-trace/Perfetto-compatible file plus a per-worker summary.
// A flag the subcommand never read is reported on stderr as
// `egraph_cli: ignored flag --NAME`; the exit code does not change.
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/algos/bfs.h"
#include "src/algos/kcore.h"
#include "src/algos/pagerank.h"
#include "src/algos/spmv.h"
#include "src/algos/sssp.h"
#include "src/algos/triangles.h"
#include "src/algos/wcc.h"
#include "src/engine/advisor.h"
#include "src/engine/options.h"
#include "src/gen/datasets.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/stats.h"
#include "src/io/edge_io.h"
#include "src/io/formats.h"
#include "src/io/loader.h"
#include "src/obs/export.h"
#include "src/obs/exposition.h"
#include "src/obs/request_trace.h"
#include "src/serve/query_session.h"
#include "src/snapshot/delta.h"
#include "src/snapshot/snapshot_store.h"
#include "src/obs/phase.h"
#include "src/obs/timeline.h"
#include "src/shard/shard_metrics.h"
#include "src/util/env.h"
#include "src/util/flags.h"
#include "src/util/parallel.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: egraph_cli <generate|convert|stats|run|serve> [flags] [files]\n"
               "see the header of tools/egraph_cli.cc for the full flag list\n");
  return 2;
}

// Matches a flag against the names of an enum's values (LayoutName and
// friends in src/engine/options.h), so each spelling is written once.
template <typename Enum>
Enum ParseEnum(const std::string& name, const char* what,
               std::initializer_list<Enum> values, const char* (*name_of)(Enum)) {
  for (const Enum value : values) {
    if (name == name_of(value)) {
      return value;
    }
  }
  throw std::runtime_error(std::string("unknown ") + what + ": " + name);
}

Layout ParseLayout(const std::string& name) {
  return ParseEnum(name, "layout",
                   {Layout::kAdjacency, Layout::kCompressed, Layout::kEdgeArray,
                    Layout::kGrid, Layout::kSharded},
                   LayoutName);
}

Direction ParseDirection(const std::string& name) {
  return ParseEnum(name, "direction",
                   {Direction::kPush, Direction::kPull, Direction::kPushPull},
                   DirectionName);
}

Sync ParseSync(const std::string& name) {
  return ParseEnum(name, "sync", {Sync::kAtomics, Sync::kLocks, Sync::kLockFree},
                   SyncName);
}

BuildMethod ParseMethod(const std::string& name) {
  if (name == "radix") {
    return BuildMethod::kRadixSort;
  }
  if (name == "count") {
    return BuildMethod::kCountSort;
  }
  if (name == "dynamic") {
    return BuildMethod::kDynamic;
  }
  throw std::runtime_error("unknown build method: " + name);
}

StorageMedium ParseMedium(const std::string& name) {
  if (name == "memory") {
    return kMediumMemory;
  }
  if (name == "ssd") {
    return kMediumSsd;
  }
  if (name == "hdd") {
    return kMediumHdd;
  }
  throw std::runtime_error("unknown medium: " + name);
}

int CmdGenerate(const Flags& flags) {
  const std::string type = flags.GetString("type", "rmat");
  const int scale = static_cast<int>(flags.GetInt("scale", 18));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  EdgeList graph;
  if (type == "rmat") {
    graph = DatasetRmat(scale, seed);
  } else if (type == "twitter") {
    graph = DatasetTwitter(scale, seed);
  } else if (type == "road") {
    graph = DatasetUsRoad(scale, seed);
  } else if (type == "uniform") {
    ErdosRenyiOptions options;
    options.num_vertices = 1u << scale;
    options.num_edges = 16ull << scale;
    options.seed = seed;
    graph = GenerateErdosRenyi(options);
  } else {
    std::fprintf(stderr, "generate: unknown --type=%s\n", type.c_str());
    return 2;
  }
  if (flags.GetBool("weights", false)) {
    graph.AssignRandomWeights(0.1f, 1.0f, seed * 31);
  }
  WriteBinaryEdges(out, graph);
  std::printf("%s\n", DescribeDataset(out, graph).c_str());
  return 0;
}

EdgeList LoadAs(const std::string& format, const std::string& path) {
  if (format == "binary") {
    return LoadEdges(path, kMediumMemory);
  }
  if (format == "text") {
    return ReadTextEdges(path);
  }
  if (format == "snap") {
    return ReadSnapEdges(path);
  }
  if (format == "mm") {
    return ReadMatrixMarket(path);
  }
  throw std::runtime_error("unknown format: " + format);
}

int CmdConvert(const Flags& flags) {
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "convert: expected IN and OUT files\n");
    return 2;
  }
  const EdgeList graph = LoadAs(flags.GetString("from", "binary"), flags.positional()[0]);
  const std::string to = flags.GetString("to", "binary");
  if (to == "binary") {
    WriteBinaryEdges(flags.positional()[1], graph);
  } else if (to == "text") {
    WriteTextEdges(flags.positional()[1], graph);
  } else {
    std::fprintf(stderr, "convert: unknown --to=%s\n", to.c_str());
    return 2;
  }
  std::printf("converted %llu edges\n", static_cast<unsigned long long>(graph.num_edges()));
  return 0;
}

int CmdStats(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "stats: expected a graph file\n");
    return 2;
  }
  const EdgeList graph =
      LoadAs(flags.GetString("from", "binary"), flags.positional()[0]);
  const GraphStats stats = ComputeStats(graph);
  Table table({"metric", "value"});
  table.AddRow({"vertices", Table::FormatCount(stats.num_vertices)});
  table.AddRow({"edges", Table::FormatCount(static_cast<int64_t>(stats.num_edges))});
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", stats.avg_degree);
  table.AddRow({"avg degree", buffer});
  table.AddRow({"max out-degree", Table::FormatCount(stats.max_out_degree)});
  table.AddRow({"max in-degree", Table::FormatCount(stats.max_in_degree)});
  table.AddRow({"isolated vertices", Table::FormatCount(stats.isolated_vertices)});
  table.AddRow({"top-1% edge share", Table::FormatPercent(stats.top1pct_out_edge_share)});
  table.Print("graph statistics");
  return 0;
}

int CmdRun(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "run: expected a graph file\n");
    return 2;
  }
  const std::string algo = flags.GetString("algo", "bfs");

  // Timeline tracing covers everything from load onward, so enable it before
  // the loader starts. The flag takes priority over EG_TIMELINE.
  const std::string timeline_file = flags.GetString("timeline", "");
  if (!timeline_file.empty()) {
    obs::Timeline::SetEnabled(true);
  } else {
    obs::TimelineEnableFromEnv();
  }

  RunConfig config;
  config.layout = ParseLayout(flags.GetString("layout", "adjacency"));
  config.direction = ParseDirection(flags.GetString("direction", "push"));
  config.sync = ParseSync(flags.GetString("sync", "atomics"));
  config.method = ParseMethod(flags.GetString("method", "radix"));
  config.shards = static_cast<int>(flags.GetInt("shards", 0));

  // --medium routes binary input through the overlapped load→build pipeline
  // (src/io/loader.h): the CSRs are built while the file streams from the
  // selected medium, and installed into the handle below so Prepare()
  // does not rebuild them. Algorithms that mutate the edge list before
  // building (undirected symmetrization, dedup) load the plain way.
  const std::string medium_name = flags.GetString("medium", "");
  const std::string from = flags.GetString("from", "binary");
  const bool mutates_input = algo == "wcc" || algo == "kcore" || algo == "triangles";
  const bool use_load_build = !medium_name.empty() && from == "binary" &&
                              config.layout == Layout::kAdjacency && !mutates_input;
  if (!medium_name.empty() && !use_load_build) {
    std::fprintf(stderr,
                 "note: --medium applies to binary input on the adjacency layout "
                 "with non-mutating algorithms; loading normally\n");
  }

  Timer load_timer;
  EdgeList graph;
  LoadBuildResult prebuilt;
  bool has_prebuilt = false;
  double load_seconds = 0.0;
  if (use_load_build) {
    LoadBuildOptions options;
    options.method = config.method;
    options.build_in = config.direction != Direction::kPush;
    options.medium = ParseMedium(medium_name);
    // Streaming granularity: smaller chunks expose more overlap on small
    // files (the final chunk's build can never hide behind a transfer).
    const int64_t chunk_mb = flags.GetInt("chunk-mb", 8);
    if (chunk_mb <= 0 || chunk_mb > 1024) {
      throw std::runtime_error("--chunk-mb must be in [1, 1024]");
    }
    options.chunk_bytes = static_cast<size_t>(chunk_mb) << 20;
    prebuilt = LoadAndBuild(flags.positional()[0], options);
    graph = std::move(prebuilt.edges);
    has_prebuilt = true;
    load_seconds = prebuilt.total_seconds - prebuilt.post_load_seconds;
    std::printf("loader: %s, %s: total %.3fs, stall %.3fs\n", options.medium.name,
                BuildMethodName(options.method), prebuilt.total_seconds,
                prebuilt.load_stall_seconds);
  } else {
    obs::ScopedPhase load_phase(obs::Phase::kLoad);
    graph = LoadAs(from, flags.positional()[0]);
    load_seconds = load_timer.Seconds();
  }

  if (flags.GetBool("advisor", false)) {
    const GraphStats stats = ComputeStats(graph);
    AlgorithmTraits traits;
    if (algo == "bfs") {
      traits = TraitsBfs();
    } else if (algo == "wcc") {
      traits = TraitsWcc();
    } else if (algo == "sssp") {
      traits = TraitsSssp();
    } else if (algo == "pagerank") {
      traits = TraitsPagerank();
    } else if (algo == "spmv") {
      traits = TraitsSpmv();
    } else {
      traits = TraitsBfs();
    }
    MachineTraits machine;
    machine.numa_nodes = static_cast<int>(flags.GetInt("numa-nodes", 1));
    machine.memory_budget_bytes =
        static_cast<uint64_t>(flags.GetInt("memory-budget-mb", 0)) << 20;
    machine.workers = static_cast<int>(
        flags.GetInt("workers", ThreadPool::Current().num_threads()));
    const Recommendation rec = Advise(traits, stats, machine);
    config.layout = rec.layout;
    config.direction = rec.direction;
    config.sync = rec.sync;
    std::printf("advisor: %s / %s / %s  (%s)\n", LayoutName(rec.layout),
                DirectionName(rec.direction), SyncName(rec.sync), rec.rationale.c_str());
  }

  const VertexId source = static_cast<VertexId>(flags.GetInt("source", 0));
  const int iterations = static_cast<int>(flags.GetInt("iterations", 10));

  double algorithm_seconds = 0.0;
  std::string summary;
  char buffer[128];

  if (algo == "wcc" && (config.layout == Layout::kAdjacency ||
                        config.layout == Layout::kCompressed ||
                        config.layout == Layout::kSharded)) {
    graph = graph.MakeUndirected();
    config.symmetric_input = true;
  }
  if (algo == "kcore" || algo == "triangles") {
    graph = graph.MakeUndirected();
    graph.RemoveSelfLoops();
    graph.RemoveDuplicateEdges();
    config.symmetric_input = true;
  }
  GraphHandle handle(std::move(graph));
  if (has_prebuilt) {
    // The non-overlapped tail (Finalize/Scatter/BuildCsr) is the honest
    // pre-processing cost; the overlapped chunk work already hid inside
    // load_seconds, matching the paper's attribution.
    handle.InstallCsr(EdgeDirection::kOut, std::move(prebuilt.out),
                      prebuilt.post_load_seconds);
    if (prebuilt.has_in) {
      handle.InstallCsr(EdgeDirection::kIn, std::move(prebuilt.in), 0.0);
    }
  }

  if (algo == "bfs") {
    const BfsResult result = RunBfs(handle, source, config);
    int64_t reached = 0;
    for (const VertexId p : result.parent) {
      reached += p != kInvalidVertex ? 1 : 0;
    }
    std::snprintf(buffer, sizeof(buffer), "reached %lld vertices in %d iterations",
                  static_cast<long long>(reached), result.stats.rounds());
    summary = buffer;
    algorithm_seconds = result.stats.algorithm_seconds;
  } else if (algo == "wcc") {
    const WccResult result = RunWcc(handle, config);
    int64_t components = 0;
    for (VertexId v = 0; v < handle.num_vertices(); ++v) {
      components += result.label[v] == v ? 1 : 0;
    }
    std::snprintf(buffer, sizeof(buffer), "%lld components in %d rounds",
                  static_cast<long long>(components), result.stats.rounds());
    summary = buffer;
    algorithm_seconds = result.stats.algorithm_seconds;
  } else if (algo == "sssp") {
    const SsspResult result = RunSssp(handle, source, config);
    std::snprintf(buffer, sizeof(buffer), "%d relaxation rounds", result.stats.rounds());
    summary = buffer;
    algorithm_seconds = result.stats.algorithm_seconds;
  } else if (algo == "pagerank") {
    PagerankOptions options;
    options.iterations = iterations;
    const PagerankResult result = RunPagerank(handle, options, config);
    VertexId best = 0;
    for (VertexId v = 1; v < handle.num_vertices(); ++v) {
      if (result.rank[v] > result.rank[best]) {
        best = v;
      }
    }
    std::snprintf(buffer, sizeof(buffer), "top vertex %u (rank %.3e)", best,
                  static_cast<double>(result.rank[best]));
    summary = buffer;
    algorithm_seconds = result.stats.algorithm_seconds;
  } else if (algo == "spmv") {
    const std::vector<float> x(handle.num_vertices(), 1.0f);
    const SpmvResult result = RunSpmv(handle, x, config);
    summary = "single pass complete";
    algorithm_seconds = result.stats.algorithm_seconds;
  } else if (algo == "kcore") {
    const KcoreResult result = RunKcore(handle, config);
    std::snprintf(buffer, sizeof(buffer), "max core %u", result.max_core);
    summary = buffer;
    algorithm_seconds = result.stats.algorithm_seconds;
  } else if (algo == "triangles") {
    const TriangleResult result = RunTriangleCount(handle, config);
    std::snprintf(buffer, sizeof(buffer), "%llu triangles",
                  static_cast<unsigned long long>(result.triangles));
    summary = buffer;
    algorithm_seconds = result.stats.algorithm_seconds;
  } else {
    std::fprintf(stderr, "run: unknown --algo=%s\n", algo.c_str());
    return 2;
  }

  std::printf("%s: %s\n", algo.c_str(), summary.c_str());
  std::printf("end-to-end: load %.3fs + preprocess %.3fs + algorithm %.3fs = %.3fs\n",
              load_seconds, handle.preprocess_seconds(), algorithm_seconds,
              load_seconds + handle.preprocess_seconds() + algorithm_seconds);

  if (flags.GetBool("metrics", false)) {
    std::printf("%s", obs::MetricsTableString().c_str());
  }
  const std::string metrics_json = flags.GetString("metrics-json", "");
  if (!metrics_json.empty()) {
    const std::string report_name = "egraph_cli run --algo=" + algo;
    if (metrics_json == "-") {
      std::printf("%s\n", obs::ProcessReportToJson(report_name).Dump(2).c_str());
    } else if (!obs::WriteProcessReport(metrics_json, report_name)) {
      return 1;
    }
  }
  if (obs::Timeline::Enabled()) {
    const std::string path = !timeline_file.empty()
                                 ? timeline_file
                                 : EnvString("EG_TIMELINE_FILE", "egraph_cli.timeline.json");
    if (obs::WriteTimelineTrace(path)) {
      std::printf("timeline: %s\n", path.c_str());
      std::printf("%s", obs::TimelineSummaryTableString().c_str());
    } else {
      std::fprintf(stderr, "run: cannot write timeline %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

// Starts the background exposition sampler when --stats-out was given. The
// session (and store, when present) must outlive the returned sampler.
std::unique_ptr<obs::StatsSampler> StartStatsSampler(
    const Flags& flags, serve::QuerySession& session,
    const snapshot::SnapshotStore* store) {
  const std::string stats_out = flags.GetString("stats-out", "");
  if (stats_out.empty()) {
    return nullptr;
  }
  obs::StatsSampler::Options options;
  options.path = stats_out;
  options.interval_ms = static_cast<int>(flags.GetInt("stats-interval-ms", 1000));
  options.gauges = [&session, store] {
    std::vector<obs::GaugeSample> gauges = serve::ServeGauges(session, store);
    for (obs::GaugeSample& sample : ShardGauges()) {
      gauges.push_back(std::move(sample));
    }
    return gauges;
  };
  return std::make_unique<obs::StatsSampler>(std::move(options));
}

// Post-drain observability output: stops the sampler (its final write is the
// post-drain state) and prints the slow-query offenders' phase breakdowns.
void FinishServeObservability(serve::QuerySession& session,
                              obs::StatsSampler* sampler,
                              const std::string& stats_out) {
  if (sampler != nullptr) {
    sampler->Stop();
    std::printf("stats: %s (Prometheus) + %s.json (%lld samples)\n",
                stats_out.c_str(), stats_out.c_str(),
                static_cast<long long>(sampler->samples()));
  }
  const obs::SlowQueryLog* log = session.slow_query_log();
  if (log == nullptr) {
    return;
  }
  std::printf("slow-query log: %lld offender(s) over %.0f ms (%lld displaced)\n",
              static_cast<long long>(log->recorded()),
              log->threshold_seconds() * 1e3,
              static_cast<long long>(log->dropped()));
  for (const obs::SlowQueryRecord& record : log->Snapshot()) {
    std::printf("%s\n", obs::FormatSlowQuery(record).c_str());
  }
}

// serve --updates: run the query stream against a SnapshotStore. Updates are
// applied in batches interleaved with query submission (queries are spread
// evenly across the gaps), so consecutive queries pin successive epochs; the
// background refreeze thread merges each batch while earlier queries are
// still executing against the epochs they pinned.
int CmdServeUpdates(const Flags& flags, const RunConfig& config,
                    const std::vector<serve::ServeQuery>& queries,
                    EdgeList graph, serve::QuerySessionOptions options,
                    double load_seconds) {
  std::vector<snapshot::EdgeUpdate> updates =
      snapshot::ReadUpdateFile(flags.GetString("updates", ""));
  if (updates.empty()) {
    std::fprintf(stderr, "serve: %s holds no updates\n",
                 flags.GetString("updates", "").c_str());
    return 2;
  }
  for (const serve::ServeQuery& query : queries) {
    if (query.config.layout != Layout::kAdjacency) {
      std::fprintf(stderr,
                   "serve: --updates serves adjacency-layout queries only "
                   "(epochs materialize CSRs, not grids)\n");
      return 2;
    }
  }

  snapshot::SnapshotOptions sopts;
  sopts.symmetric = config.symmetric_input;
  sopts.method = config.method;
  for (const serve::ServeQuery& query : queries) {
    // Pull and push-pull traversals (and pagerank's pull pass) walk the
    // in-CSR, so every epoch must maintain one. Under --symmetrize the
    // in-CSR aliases the out-CSR and this flag is ignored by the store.
    if (query.config.direction != Direction::kPush ||
        query.kind == serve::QueryKind::kPagerank) {
      sopts.build_in_csr = true;
    }
  }
  if (config.symmetric_input) {
    updates = snapshot::MirrorUpdates(updates);
  }
  size_t batch = static_cast<size_t>(flags.GetInt("update-batch", 0));
  if (batch == 0) {
    batch = (updates.size() + 7) / 8;  // default: ~8 epochs over the stream
  }
  sopts.refreeze_threshold = batch;
  sopts.background_refreeze = true;

  Timer preprocess_timer;
  snapshot::SnapshotStore store(std::move(graph), sopts);
  const double preprocess_seconds = preprocess_timer.Seconds();

  serve::QuerySession session(store, options);
  std::unique_ptr<obs::StatsSampler> sampler =
      StartStatsSampler(flags, session, &store);
  const size_t num_batches = (updates.size() + batch - 1) / batch;
  const size_t groups = num_batches + 1;
  int64_t accepted = 0;
  size_t qpos = 0;
  for (size_t g = 0; g < groups; ++g) {
    const size_t qend = queries.size() * (g + 1) / groups;
    for (; qpos < qend; ++qpos) {
      accepted +=
          session.Submit(queries[qpos]) == serve::SubmitStatus::kAccepted ? 1 : 0;
    }
    if (g < num_batches) {
      const size_t lo = g * batch;
      const size_t hi = lo + batch < updates.size() ? lo + batch : updates.size();
      store.Apply(std::span<const snapshot::EdgeUpdate>(updates.data() + lo,
                                                        hi - lo));
    }
  }
  store.Flush();  // publish whatever the background thread has not merged yet
  const std::vector<serve::ServeResult> results = session.Drain();
  FinishServeObservability(session, sampler.get(), flags.GetString("stats-out", ""));
  const serve::QuerySessionStats stats = session.stats();

  for (const serve::ServeResult& result : results) {
    std::printf(
        "query %lld: %s %s in %.4fs (epoch %llu, %d iterations, worker %d, "
        "checksum %016llx)\n",
        static_cast<long long>(result.id), serve::QueryKindName(result.kind),
        result.ok ? "ok" : "FAILED", result.seconds,
        static_cast<unsigned long long>(result.epoch), result.iterations,
        result.worker, static_cast<unsigned long long>(result.checksum));
  }
  const snapshot::SnapshotStoreStats sstats = store.stats();
  std::printf(
      "serve: %lld epoch(s) published (final epoch %llu), %lld/%lld updates "
      "merged, %lld edge(s) inserted, %lld tombstoned, merge %.3fs, "
      "full-rebuild %.3fs\n",
      static_cast<long long>(sstats.epochs_published),
      static_cast<unsigned long long>(sstats.epoch),
      static_cast<long long>(sstats.updates_merged),
      static_cast<long long>(sstats.updates_applied),
      static_cast<long long>(sstats.edges_inserted),
      static_cast<long long>(sstats.tombstones_dropped), sstats.merge_seconds,
      sstats.full_rebuild_seconds);
  std::printf("serve: %lld/%zu queries accepted, %lld completed, %lld rejected "
              "(%lld queue-full, %lld closed)\n",
              static_cast<long long>(accepted), queries.size(),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.rejected_full),
              static_cast<long long>(stats.rejected_closed));
  std::printf("serve: load %.3fs, epoch-0 build %.3fs, concurrency %d -> "
              "%.1f queries/s (%.3fs wall)\n",
              load_seconds, preprocess_seconds, options.concurrency, stats.qps,
              stats.wall_seconds);
  return stats.completed == accepted ? 0 : 1;
}

int CmdServe(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "serve: expected a graph file\n");
    return 2;
  }
  const std::string queries_path = flags.GetString("queries", "");
  if (queries_path.empty()) {
    std::fprintf(stderr, "serve: --queries is required\n");
    return 2;
  }

  RunConfig config;
  config.layout = ParseLayout(flags.GetString("layout", "adjacency"));
  config.direction = ParseDirection(flags.GetString("direction", "push"));
  config.sync = ParseSync(flags.GetString("sync", "atomics"));
  config.method = ParseMethod(flags.GetString("method", "radix"));
  config.shards = static_cast<int>(flags.GetInt("shards", 0));

  const std::vector<serve::ServeQuery> queries =
      serve::ReadQueryFile(queries_path, config);
  if (queries.empty()) {
    std::fprintf(stderr, "serve: %s holds no queries\n", queries_path.c_str());
    return 2;
  }

  Timer load_timer;
  EdgeList graph;
  {
    obs::ScopedPhase load_phase(obs::Phase::kLoad);
    graph = LoadAs(flags.GetString("from", "binary"), flags.positional()[0]);
  }
  const double load_seconds = load_timer.Seconds();
  if (flags.GetBool("symmetrize", false)) {
    graph = graph.MakeUndirected();
    config.symmetric_input = true;
  }

  serve::QuerySessionOptions options;
  options.concurrency = static_cast<int>(flags.GetInt("concurrency", 1));
  options.threads_per_query = static_cast<int>(flags.GetInt("threads-per-query", 1));
  options.queue_capacity = static_cast<size_t>(flags.GetInt("queue-capacity", 1024));
  options.slow_query_seconds =
      static_cast<double>(flags.GetInt("slow-query-ms", 0)) * 1e-3;

  if (!flags.GetString("updates", "").empty()) {
    return CmdServeUpdates(flags, config, queries, std::move(graph), options,
                           load_seconds);
  }

  GraphHandle handle(std::move(graph));

  // Build the layouts the queries will touch before starting the clock, so
  // the reported throughput is pure query execution (pre-processing is
  // accounted separately, as everywhere else in the library). A missing
  // layout would still be built safely on first use — just once, inside the
  // measured window.
  for (const serve::ServeQuery& query : queries) {
    PrepareForRun(handle, query.config);
    if (query.kind == serve::QueryKind::kPagerank &&
        query.config.layout == Layout::kAdjacency) {
      RunConfig pull = query.config;
      pull.direction = Direction::kPull;  // pagerank's pull pass needs the in-CSR
      PrepareForRun(handle, pull);
    }
  }

  serve::QuerySession session(handle, options);
  std::unique_ptr<obs::StatsSampler> sampler =
      StartStatsSampler(flags, session, nullptr);
  int64_t accepted = 0;
  for (const serve::ServeQuery& query : queries) {
    accepted += session.Submit(query) == serve::SubmitStatus::kAccepted ? 1 : 0;
  }
  const std::vector<serve::ServeResult> results = session.Drain();
  FinishServeObservability(session, sampler.get(), flags.GetString("stats-out", ""));
  const serve::QuerySessionStats stats = session.stats();

  for (const serve::ServeResult& result : results) {
    std::printf("query %lld: %s %s in %.4fs (%d iterations, worker %d, checksum %016llx)\n",
                static_cast<long long>(result.id), serve::QueryKindName(result.kind),
                result.ok ? "ok" : "FAILED", result.seconds, result.iterations,
                result.worker, static_cast<unsigned long long>(result.checksum));
  }
  std::printf("serve: %lld/%zu queries accepted, %lld completed, %lld rejected "
              "(%lld queue-full, %lld closed)\n",
              static_cast<long long>(accepted), queries.size(),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.rejected_full),
              static_cast<long long>(stats.rejected_closed));
  std::printf("serve: load %.3fs, preprocess %.3fs, concurrency %d -> %.1f queries/s "
              "(%.3fs wall)\n",
              load_seconds, handle.preprocess_seconds(), options.concurrency, stats.qps,
              stats.wall_seconds);
  return stats.completed == accepted ? 0 : 1;
}

using Command = int (*)(const Flags&);

Command FindCommand(const std::string& name) {
  if (name == "generate") {
    return CmdGenerate;
  }
  if (name == "convert") {
    return CmdConvert;
  }
  if (name == "stats") {
    return CmdStats;
  }
  if (name == "run") {
    return CmdRun;
  }
  if (name == "serve") {
    return CmdServe;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const Command command = argc < 2 ? nullptr : FindCommand(argv[1]);
  if (command == nullptr) {
    return Usage();
  }
  const Flags flags(argc - 1, argv + 1);
  int status = 0;
  try {
    status = command(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // A flag the subcommand never read changed nothing; say so instead of
  // letting a typo or a removed option pass silently.
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "egraph_cli: ignored flag --%s\n", key.c_str());
  }
  return status;
}

}  // namespace
}  // namespace egraph

int main(int argc, char** argv) { return egraph::Main(argc, argv); }
