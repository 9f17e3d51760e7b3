#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 migrbench/run.py --workload drain8 --seed 1 --seconds 20 --trace 0

The first run configures and builds migrbench/ (the simulator sources under
src/ plus the benchmark) into $CARGO_TARGET_DIR/migrbench, or
.bench_build/migrbench when that is unset; later runs rebuild only what
changed. Build output goes to stderr. The extraction tests run before every
measurement.

The benchmark binary prints a report and, as its last line, a JSON result
with every metric it measured. This script keeps the report, then prints as
the last line the result restricted to the metrics BENCHMARK.json declares
for the mode: end_to_end with --trace 0, per_layer with --trace 1. A declared
metric that is missing, or whose unit disagrees, makes the result incorrect.
It exits non-zero when the build, the tests or any correctness gate fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry configure next time
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def select(result, declared):
    """The declared metrics of `result`, in declaration order, or None."""
    measured = result.get("metrics", {})
    out = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            return None
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {m['name']} has no finite value: {got}")
            return None
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "migrbench")
    if not build(build_dir):
        log("build failed")
        return 1
    if subprocess.run([os.path.join(build_dir, "migrbench_test")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("metric-extraction tests failed")
        return 1

    cmd = [os.path.join(build_dir, "migrbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        log("benchmark's last line is not a JSON result")
        return 1

    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    metrics = select(result, declared)
    correct = bool(result.get("correct")) and proc.returncode == 0 and metrics is not None
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": metrics or {},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
