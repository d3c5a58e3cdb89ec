#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/smoke_test.py

Checks BENCHMARK.json against the limits of its format, then runs every
workload at a tiny scale for one second, untraced and traced, and asserts
that the result line has exactly the four result keys, that every named metric
appears with its unit, that no operation failed, and that every end-to-end
metric is a positive number. Exits 0 when all checks pass.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]), "paths")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]),
          "command")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"} and NAME.match(workload["name"]) and
              0 < len(workload["why"]) <= 200 and "\n" not in workload["why"],
              f"workload {workload.get('name')}")
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "names are used once")
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"} and
              NAME.match(metric["name"]) and UNIT.match(metric["unit"]) and
              metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25,
              f"end_to_end {metric.get('name')}")
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"} and NAME.match(metric["name"]) and
              UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher"),
              f"per_layer {metric.get('name')}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present with the largest bound")


def run_workload(spec, workload, trace):
    args = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke", "--workload",
            workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    child = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900,
                           check=False)
    label = f"{workload} trace={trace}"
    check(child.returncode == 0, f"{label} exit code {child.returncode}: {child.stderr[-800:]}")
    if child.returncode != 0:
        return
    result = json.loads(child.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label} failed operations")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label} attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{label} metric names")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        check(got.get("unit") == metric["unit"], f"{label} unit of {metric['name']}")
        value = got.get("value")
        check(isinstance(value, (int, float)), f"{label} value of {metric['name']}")
        if not trace and isinstance(value, (int, float)):
            check(value > 0, f"{label} {metric['name']} is not positive")
    print(f"ok   {label}", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            run_workload(spec, workload, trace)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
