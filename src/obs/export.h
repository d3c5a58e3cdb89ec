// Exporters: turn the metrics registry, phase timers and collected engine
// traces into JSON documents and human-readable tables. The JSON schema is
// documented in docs/observability.md and covered by obs_test's round-trip
// tests.
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace egraph::obs {

// {"load": s, "preprocess": s, "partition": s, "algorithm": s, "total": s}
JsonValue PhasesToJson();

// {"counters": {name: value, ...}, "histograms": {name: {count, sum, mean,
// p50, p90, p95, p99}, ...}}: the registry's one JSON encoding, shared by the
// process report and the stats exposition (ExpositionJson).
JsonValue MetricsToJson();

// {"algorithm", "layout", "direction", "sync", "total_seconds",
//  "iterations": [{...}, ...]}
JsonValue TraceToJson(const EngineTrace& trace);

// The full process report: name + threads + phases + metrics + every trace
// currently in TraceSink::Get().
JsonValue ProcessReportToJson(const std::string& name);

// Renders counters, histograms and the phase breakdown as aligned tables
// (the CLI's --metrics output).
std::string MetricsTableString();

// Writes `content` to `path`, replacing the file: the one writer of every
// report file (process reports, timelines, stats exposition, bench
// results). Returns false, after a line on stderr, when the file cannot be
// opened, a write falls short or closing it fails.
bool WriteReportFile(const std::string& path, std::string_view content);

// Writes ProcessReportToJson(name) to `path` (pretty-printed). Returns
// false (and prints to stderr) when the file cannot be written.
bool WriteProcessReport(const std::string& path, const std::string& name);

}  // namespace egraph::obs

#endif  // SRC_OBS_EXPORT_H_
