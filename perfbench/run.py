#!/usr/bin/env python3
"""End-to-end benchmark of the graph library.

Run from the repository root:

    python3 perfbench/run.py --workload twitter-analytics --seed 1 --seconds 15 --trace 0

It builds the perfbench binary (perfbench/CMakeLists.txt) into .bench_build/, generates
the seeded inputs of the workload once per (dataset, scale, seed, seconds)
into .bench_build/inputs/, runs the measured program on them, and prints a
context line followed, as the last line, by the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. A traced run also runs the workload untraced to
report the tracing overhead, and writes its spans to .bench_build/traces/.
--smoke runs every dataset at a tiny scale (used by smoke_test.py).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Workload -> (dataset, scale, smoke scale, EG_THREADS of the measured run).
# Analytics kernels run single-threaded: on a shared host whose vCPUs are
# stolen under load, every round waits for the slowest of the pool's
# workers. Road BFS on 4 threads took 0.14 s on a quiet host and 0.71 s
# under steal, against 0.08 s on 1 thread (README.md, Threads).
# serve-updates runs its queries one thread each, 3 at a time.
WORKLOADS = {
    "twitter-analytics": ("twitter", 20, 11, 1),
    "road-traversal": ("road", 20, 10, 1),
    "twitter-compressed": ("twitter", 20, 11, 1),
    "serve-updates": ("serve", 18, 11, 4),
}
THREADS = 4  # build jobs and input generation (not timed), capped at nproc
INPUT_CACHE_ENTRIES = 3  # generated input directories kept on disk
BUILD_TIMEOUT_S = 850
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=1):
    log(message)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def run_child(args, timeout, env=None, capture=False):
    """Runs a child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=timeout, check=False,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(map(str, args))}")


def build_binary(base):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = base / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    with open(base / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            configure = run_child(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
            if configure.returncode != 0:
                fail("configure failed", 2)
        jobs = str(max(1, min(THREADS, os.cpu_count() or 1)))
        built = run_child(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
                          BUILD_TIMEOUT_S)
        if built.returncode != 0:
            fail("build failed", 2)
    return out / "perfbench"


def inputs_for(binary, base, dataset, scale, seed, seconds, env):
    """Generated inputs, cached per (dataset, scale, seed, seconds)."""
    cache = base / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"{dataset}-s{scale}-seed{seed}-t{seconds}"
    marker = target / ".complete"
    if not marker.is_file():
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        started = time.monotonic()
        gen = run_child([str(binary), "gen", "--dataset", dataset, "--scale", str(scale),
                         "--seed", str(seed), "--seconds", str(seconds), "--out", str(target)],
                        GEN_TIMEOUT_S, env=env)
        if gen.returncode != 0:
            shutil.rmtree(target, ignore_errors=True)
            fail(f"input generation failed for {target.name}")
        # Write the inputs back now, so their writeback does not run during
        # the measurement.
        for path in target.iterdir():
            with open(path, "rb") as written:
                os.fsync(written.fileno())
        marker.touch()
        log(f"generated {target.name} in {time.monotonic() - started:.1f}s")
    marker.touch()  # most recently used
    entries = sorted((p for p in cache.iterdir() if (p / ".complete").is_file()),
                     key=lambda p: (p / ".complete").stat().st_mtime, reverse=True)
    for stale in entries[INPUT_CACHE_ENTRIES:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def source_digest():
    """Commit of the checkout, or a digest of its library sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=False)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def measure(binary, workload, inputs, seconds, traced, env, spans_path, smoke):
    """One run of the measured program; returns (context, result)."""
    args = [str(binary), "run", "--workload", workload, "--inputs", str(inputs),
            "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if traced:
        args += ["--spans", str(spans_path)]
    if smoke:
        args.append("--allow-cache-resident")
    child = run_child(args, RUN_TIMEOUT_S, env=env, capture=True)
    if child.returncode != 0:
        fail(f"{workload} exited with code {child.returncode}", 3)
    lines = [line for line in child.stdout.splitlines() if line.strip()]
    try:
        context = json.loads(lines[0])["context"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail(f"{workload} printed no result")
    return context, result


def select(measured, spec, fill_missing):
    """The metrics BENCHMARK.json lists, by name and unit, from what the run measured."""
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value = measured[name]["value"]
        elif fill_missing:
            value = 0.0  # a layer this workload does not exercise
        else:
            fail(f"metric {name} was not measured")
        if not isinstance(value, (int, float)) or value != value or value in (
                float("inf"), float("-inf")):
            fail(f"metric {name} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale; accepts a cache-resident twitter graph")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0", 2)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root", 2)
    spec = json.loads(spec_path.read_text())

    base = build_dir()
    binary = build_binary(base)
    dataset, scale, smoke_scale, threads = WORKLOADS[args.workload]
    if args.smoke:
        scale = smoke_scale
    env = dict(os.environ)
    env.pop("EG_SCALE", None)
    env["EG_THREADS"] = str(max(1, min(THREADS, os.cpu_count() or 1)))
    inputs = inputs_for(binary, base, dataset, scale, args.seed, args.seconds, env)
    env["EG_THREADS"] = str(max(1, min(threads, os.cpu_count() or 1)))

    traces = base / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{args.workload}-seed{args.seed}.spans.json"
    context, result = measure(binary, args.workload, inputs, args.seconds, False, env,
                              spans_path, args.smoke)
    if args.trace:
        untraced_e2e = result["metrics"]["e2e_s"]["value"]
        context, result = measure(binary, args.workload, inputs, args.seconds, True, env,
                                  spans_path, args.smoke)
        result["metrics"]["trace.overhead_ratio"] = {
            "value": result["metrics"]["e2e_s"]["value"] / untraced_e2e, "unit": "ratio"}
        metrics = select(result["metrics"], spec["per_layer"], fill_missing=True)
    else:
        metrics = select(result["metrics"], spec["end_to_end"], fill_missing=False)

    context.update({"scale": scale, "seed": args.seed, "run_seconds": args.seconds,
                    "commit": source_digest(), "smoke": args.smoke})
    if args.trace:
        context["spans"] = str(spans_path.relative_to(ROOT)) if spans_path.is_relative_to(
            ROOT) else str(spans_path)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": bool(result["correct"]) and result["failed"] == 0,
                      "attempted": int(result["attempted"]), "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
