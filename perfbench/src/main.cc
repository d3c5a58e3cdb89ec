// perfbench: the measured program of the repository's end-to-end benchmark
// (run.py is the entry point and calls this binary).
//
//   perfbench gen --dataset twitter|road|serve --scale S --seed N
//                 --seconds R --out DIR
//   perfbench run --workload NAME --inputs DIR --seconds R --trace 0|1
//                 [--spans FILE] [--allow-cache-resident]
//
// `run` prints a context line and then, as its last line, the result JSON
// with every metric it measured. Exit codes: 0 ok, 2 usage, 3 refused or
// failed to run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/generate.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --dataset D --scale S --seed N --seconds R --out DIR\n"
               "       perfbench run --workload W --inputs DIR --seconds R --trace 0|1 "
               "[--spans FILE] [--allow-cache-resident]\n");
  return 2;
}

// --key value pairs; a bare --flag maps to "1".
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* flags) {
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) != 0) {
      return false;
    }
    const std::string name = argv[i] + 2;
    if (name == "allow-cache-resident") {
      flags->insert_or_assign(name, std::string("1"));
    } else if (i + 1 < argc) {
      flags->insert_or_assign(name, std::string(argv[++i]));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (argc < 2 || !ParseFlags(argc, argv, &flags)) {
    return Usage();
  }
  const std::string command = argv[1];
  auto get = [&flags](const std::string& key) {
    const auto it = flags.find(key);
    return it == flags.end() ? std::string() : it->second;
  };
  try {
    if (command == "gen") {
      if (get("dataset").empty() || get("scale").empty() || get("seed").empty() ||
          get("seconds").empty() || get("out").empty()) {
        return Usage();
      }
      perfbench::Generate(get("dataset"), std::stoi(get("scale")), std::stoull(get("seed")),
                          std::stod(get("seconds")), get("out"));
      return 0;
    }
    if (command == "run") {
      perfbench::RunOptions options;
      options.workload = get("workload");
      options.input_dir = get("inputs");
      options.allow_cache_resident = get("allow-cache-resident") == "1";
      if (options.workload.empty() || options.input_dir.empty() || get("seconds").empty()) {
        return Usage();
      }
      options.seconds = std::stod(get("seconds"));
      const bool traced = get("trace") == "1";
      perfbench::SpanLog spans(traced);
      perfbench::Report report;
      perfbench::PrintContext(options.workload, traced);
      if (options.workload == "serve-updates") {
        perfbench::RunServeUpdates(options, spans, report);
      } else {
        perfbench::RunAnalytics(options, spans, report);
      }
      for (const auto& [layer, seconds] : spans.SelfSecondsByLayer()) {
        report.Set(layer + ".self_s", seconds, "s");
      }
      if (traced && !get("spans").empty()) {
        spans.Write(get("spans"));
      }
      report.PrintResult();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  return Usage();
}
