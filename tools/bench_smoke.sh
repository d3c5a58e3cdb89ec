#!/usr/bin/env bash
# Smoke-checks the machine-readable bench pipeline end to end: runs a bench
# binary at a tiny EG_SCALE with the timeline enabled, then verifies that
#   1. a BENCH_*.json result file appeared and validates against the
#      egraph-bench-v1 schema (bench_regress.py's loader is the validator),
#   2. the file self-compares clean (identity diff -> "no regressions"),
#   3. a timeline trace file appeared and is parseable JSON with at least
#      one complete ("X") span event.
#
# Usage: tools/bench_smoke.sh [bench_binary] [scale]
#   bench_binary  path to a bench executable (default build/bench/bench_fig08_pagerank_sync)
#   scale         EG_SCALE for the run (default 10)
#
# ctest registers this for several benches: bench_json_smoke (pagerank sync
# sweep), bench_serve_smoke (QuerySession throughput over a frozen handle,
# which also cross-checks result checksums across concurrency levels),
# bench_snapshot_smoke (incremental refreeze vs radix rebuild),
# bench_shard_smoke (striped-lock vs sharded aggregated push), and
# bench_compression_smoke (compressed vs plain layouts, whose internal gates
# cover footprint, checksum identity and bounded decode slowdown).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH="${1:-$ROOT/build/bench/bench_fig08_pagerank_sync}"
SCALE="${2:-10}"

if [[ ! -x "$BENCH" ]]; then
  echo "bench_smoke: $BENCH is not an executable (build the bench targets first)" >&2
  exit 2
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "running $(basename "$BENCH") at EG_SCALE=$SCALE into $WORKDIR"
(cd "$WORKDIR" && EG_SCALE="$SCALE" EG_TIMELINE=1 "$BENCH" >/dev/null)

bench_json=("$WORKDIR"/BENCH_*.json)
if [[ ! -f "${bench_json[0]}" ]]; then
  echo "bench_smoke: FAIL - no BENCH_*.json emitted" >&2
  exit 1
fi
echo "found ${bench_json[0]##*/}"

# Schema validation + identity self-compare in one call: the loader rejects
# malformed documents, then the diff of a file against itself must be clean.
python3 "$ROOT/tools/bench_regress.py" "${bench_json[0]}" "${bench_json[0]}"

timeline_json=("$WORKDIR"/*.timeline.json)
if [[ ! -f "${timeline_json[0]}" ]]; then
  echo "bench_smoke: FAIL - no *.timeline.json emitted" >&2
  exit 1
fi
echo "found ${timeline_json[0]##*/}"

python3 - "${timeline_json[0]}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "timeline has no complete spans"
assert any(e.get("ph") == "M" for e in events), "timeline has no thread metadata"
assert "egraphSummary" in doc, "timeline missing egraphSummary"
print(f"timeline ok: {len(events)} events, {len(spans)} spans")
EOF

echo "bench_smoke: PASS"
