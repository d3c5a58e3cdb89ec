#!/usr/bin/env bash
# Smoke-checks egraph_cli's ignored-flag report: serves a tiny generated
# graph with `--batch=1`, a flag `serve` does not read, and verifies that
#   1. the run still succeeds (an ignored flag never changes the exit code),
#   2. stderr carries exactly `egraph_cli: ignored flag --batch`,
#   3. flags the subcommand did read are not reported.
# Then runs the same graph with `run --medium=ssd --method=dynamic
# --loader=pipelined`: `run` reads no --loader flag, so stderr must be
# exactly `egraph_cli: ignored flag --loader`, while --medium streams the
# file through the load-and-build loop (a `loader:` line on stdout).
#
# Usage: tools/cli_ignored_flag_smoke.sh [egraph_cli]
#   egraph_cli  path to the CLI executable (default build/tools/egraph_cli)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/egraph_cli}"

if [[ ! -x "$CLI" ]]; then
  echo "cli_ignored_flag_smoke: $CLI is not an executable (build egraph_cli first)" >&2
  exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --type=rmat --scale=6 --out="$WORK/g.bin" > /dev/null
echo "bfs 0" > "$WORK/queries.txt"
"$CLI" serve --queries="$WORK/queries.txt" --batch=1 "$WORK/g.bin" \
  > "$WORK/stdout.txt" 2> "$WORK/stderr.txt"
cat "$WORK/stderr.txt"

if ! grep -qx "egraph_cli: ignored flag --batch" "$WORK/stderr.txt"; then
  echo "cli_ignored_flag_smoke: FAIL - --batch was not reported as ignored" >&2
  exit 1
fi
if grep -q "ignored flag --queries" "$WORK/stderr.txt"; then
  echo "cli_ignored_flag_smoke: FAIL - --queries was read but reported as ignored" >&2
  exit 1
fi

"$CLI" run --medium=ssd --method=dynamic --loader=pipelined "$WORK/g.bin" \
  > "$WORK/stdout.txt" 2> "$WORK/stderr.txt"
cat "$WORK/stderr.txt"

if [[ "$(cat "$WORK/stderr.txt")" != "egraph_cli: ignored flag --loader" ]]; then
  echo "cli_ignored_flag_smoke: FAIL - run stderr is not exactly the --loader report" >&2
  exit 1
fi
if ! grep -q "^loader: " "$WORK/stdout.txt"; then
  echo "cli_ignored_flag_smoke: FAIL - --medium did not route through the loader" >&2
  exit 1
fi
echo "cli_ignored_flag_smoke: ok"
