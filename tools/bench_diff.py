#!/usr/bin/env python3
"""Compare fresh bench JSON outputs against the checked-in baselines.

Walks the known bench artifacts (BENCH_migrbench.json, BENCH_xfer.json,
BENCH_ft.json), flattens every numeric leaf to a dotted metric path, and
prints a per-metric delta table: baseline value, current value, ratio.

Simulated values are a deterministic function of the seed: every leaf of
BENCH_ft.json and BENCH_xfer.json, and each migrbench workload's
goodput_gbps and failed. Any difference in one of them prints as a
simulated change and exits 1, so a change that moves simulated results
fails until its diff refreshes the baseline.

Wall-clock leaves (run_wall_s, setup_s, peak_rss_mib) and migrbench's
repetition count (attempted) are advisory: metrics whose ratio strays past
--threshold are flagged, and only --strict turns a flag into a non-zero
exit (wall times on shared CI machines are noisy). A missing baseline or
current file skips that pair with a note rather than failing: the
comparison is opportunistic.

  tools/bench_diff.py                          # repo-root baselines vs build/
  tools/bench_diff.py --current-dir build --threshold 1.5
  tools/bench_diff.py --strict                 # gate (quiet machines only)

Refresh a baseline by copying the build/ file over the repo-root one when
the measured code intentionally changes: wall leaves from a quiet machine,
simulated ones from any build.
"""

import argparse
import json
import os
import sys

BENCH_FILES = ["BENCH_migrbench.json", "BENCH_xfer.json", "BENCH_ft.json"]

# Metric name substrings where *larger* is better (rates, ratios, speedups);
# everything else numeric is treated as smaller-is-better (times, counts).
HIGHER_IS_BETTER = ("speedup", "ratio", "epochs_committed", "goodput")

# Leaves that are configuration echoes or identities, not measurements:
# comparing them produces noise (e.g. the scenario string, schema version).
SKIP_LEAVES = ("version", "seed", "payload_bytes", "stream_gbps", "sim_ns",
               "n", "balance_ok")

# Files whose every leaf is simulated, and the leaf suffixes that are
# simulated in the others.
SIMULATED_FILES = ("BENCH_ft.json", "BENCH_xfer.json")
SIMULATED_SUFFIXES = (".goodput_gbps.value", ".failed")


def is_simulated(name, metric):
    return name in SIMULATED_FILES or metric.endswith(SIMULATED_SUFFIXES)


def flatten(node, prefix=""):
    """Yield (dotted_path, value) for every numeric leaf under node."""
    if isinstance(node, dict):
        for key in node:
            yield from flatten(node[key], f"{prefix}{key}.")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            # Prefer a self-describing key (stream count, edge name) over a
            # bare index so reordered lists still line up.
            tag = None
            if isinstance(item, dict):
                for k in ("n", "name", "class", "edge"):
                    if k in item:
                        tag = f"{k}={item[k]}"
                        break
            yield from flatten(item, f"{prefix}{tag if tag is not None else i}.")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        leaf = prefix.rstrip(".")
        if leaf.rsplit(".", 1)[-1] not in SKIP_LEAVES:
            yield leaf, float(node)


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    for key, value in flatten(doc):
        metrics[key] = value
    return metrics


def better_is_higher(metric):
    return any(tok in metric for tok in HIGHER_IS_BETTER)


SIMULATED_CHANGE = "  <-- simulated value changed"


def compare_file(name, base_path, cur_path, threshold):
    """Print the delta table for one bench file.

    Returns (# flagged wall metrics, # changed simulated values)."""
    base = load_metrics(base_path)
    cur = load_metrics(cur_path)
    flagged = 0
    changed = 0
    print(f"  {name} (baseline {base_path} vs current {cur_path})")
    print(f"    {'metric':<52} {'baseline':>14} {'current':>14} {'ratio':>7}")
    for metric in sorted(base):
        simulated = is_simulated(name, metric)
        if metric not in cur:
            mark = SIMULATED_CHANGE if simulated else ""
            changed += simulated
            print(f"    {metric:<52} {base[metric]:>14.6g} {'<missing>':>14}{mark}")
            continue
        b, c = base[metric], cur[metric]
        ratio = c / b if b != 0 else (1.0 if c == 0 else float("inf"))
        mark = ""
        if simulated:
            if c != b:
                mark = SIMULATED_CHANGE
                changed += 1
        elif b != 0 and (ratio > threshold if not better_is_higher(metric)
                         else ratio < 1.0 / threshold):
            mark = "  <-- regressed"
            flagged += 1
        print(f"    {metric:<52} {b:>14.6g} {c:>14.6g} {ratio:>7.2f}{mark}")
    for metric in sorted(set(cur) - set(base)):
        simulated = is_simulated(name, metric)
        changed += simulated
        mark = SIMULATED_CHANGE if simulated else ""
        print(f"    {metric:<52} {'<new>':>14} {cur[metric]:>14.6g}{mark}")
    return flagged, changed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default=".",
                    help="directory holding the committed BENCH_*.json (default: repo root)")
    ap.add_argument("--current-dir", default="build",
                    help="directory holding the fresh BENCH_*.json (default: build/)")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="flag metrics whose ratio strays past this factor (default: 2.0)")
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero when any metric is flagged (default: advisory)")
    args = ap.parse_args()

    total_flagged = 0
    total_changed = 0
    compared = 0
    print("==> bench delta vs committed baselines (simulated values exact; wall "
          f"threshold {args.threshold:.2f}x, {'strict' if args.strict else 'advisory'})")
    for name in BENCH_FILES:
        base_path = os.path.join(args.baseline_dir, name)
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.isfile(base_path):
            print(f"  {name}: no committed baseline at {base_path}; skipping")
            continue
        if not os.path.isfile(cur_path):
            print(f"  {name}: no current run at {cur_path}; skipping")
            continue
        flagged, changed = compare_file(name, base_path, cur_path, args.threshold)
        total_flagged += flagged
        total_changed += changed
        compared += 1

    if compared == 0:
        print("==> bench_diff: nothing to compare")
        return 0
    if total_changed:
        print(f"==> bench_diff: {total_changed} simulated value(s) changed; refresh the "
              "baseline in the same diff if the change is intended")
        return 1
    if total_flagged:
        print(f"==> bench_diff: {total_flagged} metric(s) strayed past "
              f"{args.threshold:.2f}x (advisory: wall times are machine-dependent)")
        return 1 if args.strict else 0
    print("==> bench_diff: all compared metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
