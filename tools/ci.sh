#!/usr/bin/env bash
# Full CI pipeline: plain build + tests, the adversarial/lossy suites on
# their own (fast signal on transport/migration robustness regressions,
# including the mutation sweeps of every parser of untrusted bytes and the
# hostile-string round trip through every JSON artifact writer), a
# blackout-anatomy artifact stage (instrumented lossy drain + schema
# validation of the trace/timeseries/flight-recorder outputs, and an SLO
# report whose rule name needs escaping), a blackout
# critical-path stage (lossy + clean drains with causal attribution armed,
# gated on the tiling invariant and the dominant edge matching the injected
# fault), a pre-copy vs post-copy drain comparison gated on post-copy's
# shorter blackout, a multifd scale-out stage (1-stream vs 4-stream drain
# gated on the mux cutting the median transfer phase >= 1.5x), an FT
# failover stage (kill-primary under a lossy seed, gated on the output-
# commit invariant and the validated ft_report incl. its critical path),
# the repository benchmark's correctness gates (migrbench on every declared
# workload, results saved to build/BENCH_migrbench.json), a bench delta vs
# the committed BENCH_*.json baselines (tools/bench_diff.py: a changed
# simulated value fails, wall-time deltas are advisory), the fast figure
# benches (each table must equal its committed copy under bench/tables/),
# then the ASan+UBSan sanitizer pass with asserts on.
#
#   tools/ci.sh              # everything
#   tools/ci.sh --fast       # skip the sanitizer pass
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> [1/11] plain build + full test suite"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==> [2/11] lossy-seed suites (fault injection, adversarial migrations, lossy drain)"
# Deterministic seeded runs: the fault scenario suite, every property test
# that drives traffic through injected loss/reordering/partitions, the
# cluster suite (scheduler admission/retry plus the seeded lossy drain with
# a mid-drain partition), the data path's admission sweep against its
# reference model, the transport's burst pins, the retransmit-timer
# deadline and event-population pins, the mutation sweeps of the wire
# parser, of the image-payload and FT epoch-frame readers, of the post-copy
# page request/reply readers and of the TransferMux data/ACK frames, the
# hostile-string round trip through every JSON artifact writer, the FT
# teardown tests (ending protection releases what the standby staged), the
# responder's memory-fault replies and the requester's failed landings and
# emissions, payload landing (a whole page block handed to the page table,
# checked against the address-space reference model), the event loop's
# seeded dispatch-order properties (delivery lanes and heap rebuilds
# against a reference model), the event-heap bound pins, the image
# parsers' count and enum bounds, and the SGE list's inline/spill
# ownership (copy, move and assignment across the two-entry boundary).
ctest --test-dir build --output-on-failure -j "$(nproc)" \
  -R '(ScenarioRunner|MigrationAbort|AdversarialMigrationProperty|TransportProperty|ClusterScheduler|ClusterDrain|FabricAdmissionTest|RnicBurstTest|RnicTimerTest|TailLossAfterPartialAck|WireMutationSweep|PayloadMutationSweep|PostcopyMutationSweep|XferMutationSweep|ArtifactEscapeTest|FtTeardown|RnicResponderFaultTest|RnicRequesterFaultTest|RnicLandingTest|AddressSpaceModel|EventLoopProperty|HeapBoundPin|ImageBounds|SgeList)'

echo "==> [3/11] blackout-anatomy artifacts (instrumented lossy drain + schema validation)"
# One seeded lossy drain with the full observability stack armed: Chrome
# trace, metric time series, and the wire flight recorder. The python
# validator pins the artifact schemas so downstream tooling (trace viewers,
# the EXPERIMENTS.md recipes) can rely on them.
ART_DIR=build/artifacts
mkdir -p "$ART_DIR"
build/bench/bench_cluster_drain --loss 0.01 --seed 11 --conc 4 \
  --trace "$ART_DIR/drain.trace.json" \
  --timeseries "$ART_DIR/drain.ts.csv" \
  --record "$ART_DIR/drain.cap.json"
python3 tools/validate_artifacts.py \
  --trace "$ART_DIR/drain.trace.json" \
  --timeseries "$ART_DIR/drain.ts.csv" \
  --record "$ART_DIR/drain.cap.json"
# Brownout SLI/SLO artifact: a heavier-loss drain with the burn-rate engine
# armed (baseline-policy leg + SLO-defer leg, one slo_report artifact). The
# validator pins the schema, the gap-free window tiling, the frozen-window
# bracket against the attribution, and that the lossy scenario actually
# fired at least one burn-rate alert.
build/bench/bench_cluster_drain --loss 0.2 --seed 11 --conc 4 \
  --slo 'p99<60us,budget=0.05,fast=400us,slow=4ms,burn=2' \
  --slo-out "$ART_DIR/drain.slo.json" \
  --sli-csv "$ART_DIR/drain.sli.csv"
python3 tools/validate_artifacts.py --slo "$ART_DIR/drain.slo.json" --expect-alert
# A rule name with quotes and a backslash must come out escaped: the report
# still parses and passes the schema checks.
build/tools/migrrdma_sim --qps 2 --slo 'name=tail "p99" \ x,p99<60us' \
  --slo-out "$ART_DIR/sim.slo.json"
python3 tools/validate_artifacts.py --slo "$ART_DIR/sim.slo.json"

echo "==> [4/11] blackout critical-path attribution (lossy drain, retry-dominant)"
# Causal attribution stage (DESIGN.md §16): a wire-bound drain — restore
# pre-synced like the FT standby (--restore-ms 2) so the blackout is not
# restore-dominated — under ctrl-plane loss, so image chunks time out and
# retry. The validator fails a drain that did not complete, and pins the
# critical_path schema, the tiling invariant (per-guest edge sums ==
# blackout_ns, gap-free edge walk), and that the injected loss actually
# shows up as the story the report tells: chunk_retry edges present and
# dominant across the fleet. Fleet dominance is summed blackout time, so
# one lost chunk of a final image transfer (a 1 s chunk deadline plus
# backoff) already outweighs the eight ~14 ms dumps. Every chunk and every
# chunk ACK crosses the lossy ctrl plane, so 5% loss already stalls most
# migrations somewhere; at seed 18 three of the eight final images lose a
# chunk inside the blackout.
build/bench/bench_cluster_drain --loss 0.01 --ctrl-loss 0.05 --seed 18 --conc 4 \
  --critical-path --restore-ms 2 --drain-out "$ART_DIR/drain.cp.json"
python3 tools/validate_artifacts.py --drain "$ART_DIR/drain.cp.json" \
  --critical-path --expect-retry-edges --expect-dominant chunk_retry
# Same fleet without the injected ctrl loss: attribution must still tile
# (the invariant holds on clean runs too) but the dominant edge moves off
# chunk_retry — the clean leg is restore-bound.
build/bench/bench_cluster_drain --loss 0.01 --seed 18 --conc 4 \
  --critical-path --drain-out "$ART_DIR/drain.cp_clean.json"
python3 tools/validate_artifacts.py --drain "$ART_DIR/drain.cp_clean.json" \
  --critical-path --expect-dominant restore_apply

echo "==> [5/11] pre-copy vs post-copy drain comparison (write-heavy fleet)"
# The same write-heavy drain (8 MiB dirty MR per guest, clean fabric) run
# once per migration mode. The validator pins the drain_report schema on
# both legs — including gap-free waterfall tiling and the post-copy fault
# accounting balance — and gates on the paper's headline trade: post-copy's
# service blackout must beat pre-copy's on a write-heavy workload. On this
# clean fabric at most 1% of received packets may be dropped out of
# sequence or for RNR (no post-migration retransmit storm).
build/bench/bench_cluster_drain --seed 11 --conc 4 --mem-mb 8 \
  --mode precopy --drain-out "$ART_DIR/drain.precopy.json"
build/bench/bench_cluster_drain --seed 11 --conc 4 --mem-mb 8 \
  --mode postcopy --drain-out "$ART_DIR/drain.postcopy.json"
python3 tools/validate_artifacts.py --max-wasted 0.01 \
  --drain "$ART_DIR/drain.precopy.json" \
  --drain "$ART_DIR/drain.postcopy.json" \
  --expect-postcopy-faster "$ART_DIR/drain.precopy.json" "$ART_DIR/drain.postcopy.json"

echo "==> [6/11] multifd scale-out (1-stream vs 4-stream drain)"
# The same write-heavy drain run once with a single paced 25 Gbps transfer
# stream and once with the 4-stream mux (4 x 25 Gbps). Concurrency is pinned
# to 1: at --conc 4 four concurrent migrations already fill the 100 Gbps
# port, so per-migration stream scaling is invisible — one migration at a
# time is what isolates the mux's own speedup, mirroring QEMU's multifd
# single-VM story. Gated on the 4-stream leg cutting the median per-guest
# transfer-phase time by >= 1.5x (it measures ~4x on a quiet machine), plus
# the validator's stream/suppression balance pins on both artifacts.
build/bench/bench_cluster_drain --seed 11 --conc 1 --mem-mb 8 \
  --streams 1 --drain-out "$ART_DIR/drain.s1.json"
build/bench/bench_cluster_drain --seed 11 --conc 1 --mem-mb 8 \
  --streams 4 --suppress --drain-out "$ART_DIR/drain.s4.json"
python3 tools/validate_artifacts.py --drain "$ART_DIR/drain.s1.json"
python3 tools/validate_artifacts.py \
  --drain "$ART_DIR/drain.s4.json" --expect-streams 4
python3 - "$ART_DIR/drain.s1.json" "$ART_DIR/drain.s4.json" <<'EOF'
import json
import statistics
import sys


def median_transfer_ns(path):
    with open(path) as f:
        doc = json.load(f)
    durs = [s["dur_ns"]
            for g in doc["guests"]
            for s in g["waterfall"]["slices"]
            if s["name"] == "transfer"]
    if not durs:
        sys.exit(f"FAIL {path}: no transfer slices in any waterfall")
    return statistics.median(durs)

s1 = median_transfer_ns(sys.argv[1])
s4 = median_transfer_ns(sys.argv[2])
ratio = s1 / s4 if s4 > 0 else float("inf")
print(f"    median transfer phase: 1-stream {s1 / 1e6:.3f} ms, "
      f"4-stream {s4 / 1e6:.3f} ms ({ratio:.2f}x)")
if ratio < 1.5:
    sys.exit("FAIL: 4-stream mux did not cut the median transfer phase "
             f"by >= 1.5x (got {ratio:.2f}x)")
EOF

echo "==> [7/11] FT failover comparison (kill-primary under a lossy seed)"
# Continuous-protection stage: the seeded 8-host scenario with data-plane
# loss, primary killed mid-traffic. The bench itself gates on the output-
# commit invariant (zero duplicate client-visible messages) and on the FT
# blackout beating the modeled log-replay baseline; the validator pins the
# ft_report schema (epoch accounting balance, committed-epoch monotonicity,
# gap-free failover waterfall tiling).
build/bench/bench_ft_failover --loss 0.01 --seed 11 --critical-path \
  --ft-out "$ART_DIR/ft_report.json" \
  --bench-out build/BENCH_ft.json
python3 tools/validate_artifacts.py --ft "$ART_DIR/ft_report.json" --critical-path

echo "==> [8/11] repository benchmark correctness gates (migrbench)"
# A short run of every workload BENCHMARK.json declares. run.py exits
# non-zero on a build error, a metric-extraction test failure or a failed
# correctness gate (drain completes, no stuck QPs, no corruption, exactly-
# once FT, exact repeats). Wall times are not gated here: each workload's
# result line (run.py's last line) lands in build/BENCH_migrbench.json for
# the advisory delta below.
for workload in drain8 stream_rw ft_lossy; do
  CARGO_TARGET_DIR=build python3 migrbench/run.py --workload "$workload" \
    --seed 1 --seconds 5 --trace 0 | tee "build/migrbench.$workload.out"
done
python3 - <<'EOF'
import json

doc = {"bench": "migrbench", "scenario": "migrbench/run.py --seed 1 --seconds 5 --trace 0",
       "workloads": {}}
for workload in ("drain8", "stream_rw", "ft_lossy"):
    with open(f"build/migrbench.{workload}.out") as f:
        doc["workloads"][workload] = json.loads(f.read().splitlines()[-1])
with open("build/BENCH_migrbench.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "==> [9/11] bench delta vs committed baselines"
# Per-metric delta table over every BENCH_*.json pair (migrbench from stage
# 8, ft from stage 7, xfer regenerated here). Simulated values are a
# deterministic function of the seed, so any change in one fails the stage
# until the same diff refreshes the baseline. Wall-time deltas are
# advisory: wall times on shared machines are noisy.
build/bench/bench_xfer --out build/BENCH_xfer.json
python3 tools/bench_diff.py

echo "==> [10/11] fast figure benches (paper tables)"
# Each bench exits non-zero on a failed migration (the fault sweep: on a
# failed loss row or a failure scenario that does not roll back), and
# Fig. 5 on a broken stream (bench/bench_util.hpp check_stream). Their
# tables are simulated values, a deterministic function of the code: each
# lands under build/figures/ and must equal its committed copy under
# bench/tables/, so a change that moves a simulated result fails here
# until the same diff refreshes the table. Fig. 3's sweep takes minutes
# (its 4096-QP cells) and stays out.
FIG_DIR=build/figures
mkdir -p "$FIG_DIR"
FIG_STATUS=0
for bench in bench_fig4_wbs bench_fig5_tput bench_fig6_hadoop bench_ablation_wbs \
             bench_migros_ablation bench_fault_sweep; do
  "build/bench/$bench" > "$FIG_DIR/$bench.txt"
  if ! diff -u "bench/tables/$bench.txt" "$FIG_DIR/$bench.txt"; then
    echo "FAIL: $bench's table differs from bench/tables/$bench.txt" >&2
    FIG_STATUS=1
  fi
done
[[ "$FIG_STATUS" == "0" ]] || exit 1

if [[ "$FAST" == "1" ]]; then
  echo "==> [11/11] sanitizer pass skipped (--fast)"
  exit 0
fi

echo "==> [11/11] sanitizer pass (address,undefined)"
# One instrumented tree runs the suite under ASan and UBSan together, so
# the parsers' bounds checks and view arithmetic run under both; it is
# built without NDEBUG, so every assert in src/ runs too.
tools/run_sanitized.sh address,undefined
