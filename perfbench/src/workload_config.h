// Fixed sizing of the four workloads. Generation and the measured run both
// read these, so a change here changes the benchmark (and its baseline).
#ifndef PERFBENCH_SRC_WORKLOAD_CONFIG_H_
#define PERFBENCH_SRC_WORKLOAD_CONFIG_H_

namespace perfbench {

// Analytics: traversal sources per pass.
inline constexpr int kTwitterBfsSources = 8;
inline constexpr int kRoadSources = 2;
inline constexpr int kPagerankIterations = 10;

// Times set-up (load + every Prepare) is repeated per run; setup_s is the
// median.
inline constexpr int kSetupRepeats = 3;

// Pool width of the traced run's parallel probe (analytics; capped at the
// hardware's). The measured passes run on the process pool, whose width
// run.py sets per workload.
inline constexpr unsigned kParallelProbeThreads = 4;

// serve-updates: open-loop point queries at a fixed mean rate (about half
// the capacity of kServeWorkers single-threaded workers at the serve scale)
// and a fixed-rate mirrored update stream.
inline constexpr double kServeQueriesPerSecond = 25.0;
inline constexpr double kServeShareBfs = 0.45;
inline constexpr double kServeShareSssp = 0.40;
inline constexpr double kServeSharePagerank = 0.10;  // WCC takes the rest
inline constexpr int kServePagerankIterations = 5;
inline constexpr double kServeUpdatesPerSecond = 2000.0;  // logical, before mirroring
inline constexpr double kUpdateBatchMicros = 10000.0;
inline constexpr int kServeWorkers = 3;  // plus one merge thread = 4 busy threads
inline constexpr int kMergeThreads = 1;
inline constexpr int kRefreezeThreshold = 8192;  // mirrored edge updates
// A served query counts toward goodput when it completes within this limit
// of the moment it was due.
inline constexpr double kServeLatencyLimitSeconds = 1.0;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_CONFIG_H_
