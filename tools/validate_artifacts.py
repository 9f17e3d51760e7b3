#!/usr/bin/env python3
"""Schema checks for the blackout-anatomy observability artifacts.

tools/ci.sh runs an instrumented lossy drain (bench_cluster_drain with
--trace/--timeseries/--record) and feeds the three files through here:

  python3 tools/validate_artifacts.py \
      --trace drain.trace.json --timeseries drain.ts.csv --record drain.cap.json

--slo validates the brownout SLI/SLO artifact ("kind":"slo_report"): every
guest's windows must tile its timeline gap-free, frozen windows must bracket
[freeze_at, resume_at] exactly, and --expect-alert additionally requires at
least one burn-rate alert in the log.

--ft validates a continuous-FT ft_report ("kind":"ft_report"): epoch wire
accounting must balance against the rollup, committed epochs must be
monotone, and a failover's blackout waterfall must tile [killed_at,
resume_at] gap-free.

--drain fails a drain that did not complete: "ok" must be true and every
requested migration completed. It also pins the fleet wire split: the
inbound request-packet classes (in order, duplicate, out of sequence, RNR
drop) never exceed the packets received, and retransmitted packets never
exceed those sent. --max-wasted P fails the drain when out-of-sequence plus
RNR drops exceed P of received packets (a clean drain has no
post-migration retransmit storm).

--drain additionally pins the TransferMux rollup that every image transfer
rides: bytes_attempted == bytes_delivered + bytes_lost (in total, per stream
and per guest), per-stream counters sum back to the rollup, and suppression
conserves raw bytes (raw == shipped + suppressed). --expect-streams N
requires an N-stream mux with every stream carrying chunks. The ft_report's
epochs.streams block gets the same per-stream balance treatment.

Each artifact is optional; whatever is named must parse and conform. Exits
non-zero with a per-file report on the first violation class found.
"""

import argparse
import csv
import json
import sys

VALID_PHASES = {"B", "E", "i", "X", "M", "s", "f"}
PACKET_FIELDS = {"ts_ns", "src", "dst", "op", "qpn", "psn", "bytes", "verdict"}
PACKET_VERDICTS = {"delivered", "dropped", "reordered", "partitioned"}
RECORD_KINDS = {"flight_recorder_capture", "flight_recorder_dump"}
SERVICE_PHASES = {"idle", "precopy", "frozen", "recovery", "postcopy", "ft_buffered"}
WINDOW_FIELDS = {
    "start_ns", "end_ns", "phase", "precopy_iter", "msgs", "bytes",
    "retransmits", "p50_ns", "p99_ns", "p999_ns", "max_ns", "goodput_bps",
    "retx_rate",
}
ALERT_FIELDS = {"guest", "rule", "fired_at_ns", "resolved_at_ns", "burn_fast", "burn_slow"}


def fail(path, msg):
    print(f"FAIL {path}: {msg}")
    return False


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        return fail(path, "traceEvents is not a list")
    if not events:
        return fail(path, "trace is empty")
    flow_starts = {}
    flow_finishes = {}
    span_ids = set()
    parents = []  # (event index, parent id)
    dropped = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            return fail(path, f"event {i}: unexpected ph {ph!r}")
        if "name" not in ev:
            return fail(path, f"event {i}: missing name")
        if ph != "M" and "ts" not in ev:  # metadata events carry no timestamp
            return fail(path, f"event {i}: missing ts")
        if ph == "X" and "dur" not in ev:
            return fail(path, f"event {i}: complete event without dur")
        if ph == "M" and ev["name"] == "trace_stats":
            dropped = ev.get("args", {}).get("dropped", 0)
        if ph in ("s", "f"):
            if "id" not in ev:
                return fail(path, f"event {i}: flow event without id")
            side = flow_starts if ph == "s" else flow_finishes
            if ev["id"] in side:
                return fail(path, f"event {i}: duplicate flow {ph} id {ev['id']}")
            side[ev["id"]] = i
            if ph == "f" and ev.get("bp") != "e":
                return fail(path, f"event {i}: flow finish without bp=e")
        args = ev.get("args", {})
        if isinstance(args, dict):
            if args.get("id"):
                span_ids.add(args["id"])
            if args.get("parent"):
                parents.append((i, args["parent"]))
    # Causal-graph integrity. Ring eviction can orphan one endpoint of a
    # flow or a span's parent; the trace_stats metadata reports it, and the
    # graph checks relax — the artifact is still loadable, just truncated.
    if dropped == 0:
        for fid, i in flow_starts.items():
            if fid not in flow_finishes:
                return fail(path, f"event {i}: flow start {fid} without finish")
        for fid, i in flow_finishes.items():
            if fid not in flow_starts:
                return fail(path, f"event {i}: flow finish {fid} without start")
        for i, parent in parents:
            if parent not in span_ids:
                return fail(path, f"event {i}: parent id {parent} not in trace")
    print(f"OK   {path}: {len(events)} trace events, "
          f"{len(flow_starts)} flows, {len(parents)} parent links"
          f"{f', {dropped} dropped (graph checks relaxed)' if dropped else ''}")
    return True


def check_timeseries(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    if len(rows) < 2:
        return fail(path, "no samples below the header")
    header = rows[0]
    if header[0] != "ts_ns":
        return fail(path, f"first column is {header[0]!r}, expected ts_ns")
    prev_ts = -1
    for i, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(header):
            return fail(path, f"line {i}: {len(cells)} cells vs {len(header)} columns")
        ts = int(cells[0])
        if ts < prev_ts:
            return fail(path, f"line {i}: ts_ns went backwards ({ts} < {prev_ts})")
        prev_ts = ts
        for col, cell in zip(header[1:], cells[1:]):
            if cell == "":
                continue  # instrument not yet registered at this sample
            try:
                float(cell)
            except ValueError:
                return fail(path, f"line {i}: non-numeric cell {cell!r} in {col}")
    print(f"OK   {path}: {len(rows) - 1} samples x {len(header) - 1} series")
    return True


def check_packets(path, packets):
    for i, p in enumerate(packets):
        missing = PACKET_FIELDS - p.keys()
        if missing:
            return fail(path, f"packet {i}: missing {sorted(missing)}")
        if p["verdict"] not in PACKET_VERDICTS:
            return fail(path, f"packet {i}: unexpected verdict {p['verdict']!r}")
    return True


def check_record(path):
    with open(path) as f:
        doc = json.load(f)
    kind = doc.get("kind")
    if kind not in RECORD_KINDS:
        return fail(path, f"unexpected kind {kind!r}")
    if not isinstance(doc.get("packets"), list):
        return fail(path, "packets is not a list")
    if not check_packets(path, doc["packets"]):
        return False
    if kind == "flight_recorder_dump":
        if "reason" not in doc or not isinstance(doc.get("trace"), list):
            return fail(path, "dump without reason/trace window")
    print(f"OK   {path}: {kind} with {len(doc['packets'])} packets")
    return True


def check_slo(path, expect_alert=False):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("kind") != "slo_report":
        return fail(path, f"unexpected kind {doc.get('kind')!r}")
    if doc.get("version") != 1:
        return fail(path, f"unexpected version {doc.get('version')!r}")
    if not isinstance(doc.get("guests"), list):
        return fail(path, "guests is not a list")
    n_windows = 0
    for g in doc["guests"]:
        gid = g.get("guest")
        windows = g.get("windows")
        if not isinstance(windows, list):
            return fail(path, f"guest {gid}: windows is not a list")
        prev_end = None
        for i, w in enumerate(windows):
            missing = WINDOW_FIELDS - w.keys()
            if missing:
                return fail(path, f"guest {gid} window {i}: missing {sorted(missing)}")
            if w["phase"] not in SERVICE_PHASES:
                return fail(path, f"guest {gid} window {i}: bad phase {w['phase']!r}")
            if w["end_ns"] <= w["start_ns"]:
                return fail(path, f"guest {gid} window {i}: non-positive duration")
            if prev_end is not None and w["start_ns"] != prev_end:
                return fail(
                    path,
                    f"guest {gid} window {i}: timeline gap "
                    f"({w['start_ns']} != {prev_end}) — windows must tile",
                )
            prev_end = w["end_ns"]
        n_windows += len(windows)
        att = g.get("attribution")
        if not isinstance(att, dict) or "valid" not in att:
            return fail(path, f"guest {gid}: missing attribution")
        if att["valid"]:
            frozen = [w for w in windows if w["phase"] == "frozen"]
            if frozen:
                if frozen[0]["start_ns"] != att["freeze_at_ns"]:
                    return fail(path, f"guest {gid}: frozen windows start after freeze_at")
                if frozen[-1]["end_ns"] != att["resume_at_ns"]:
                    return fail(path, f"guest {gid}: frozen windows end before resume_at")
    alerts = doc.get("alerts")
    if not isinstance(alerts, list):
        return fail(path, "alerts is not a list")
    for i, a in enumerate(alerts):
        missing = ALERT_FIELDS - a.keys()
        if missing:
            return fail(path, f"alert {i}: missing {sorted(missing)}")
        if a["resolved_at_ns"] >= 0 and a["resolved_at_ns"] < a["fired_at_ns"]:
            return fail(path, f"alert {i}: resolved before it fired")
    if expect_alert and not alerts:
        return fail(path, "expected at least one SLO alert, saw none")
    print(
        f"OK   {path}: {len(doc['guests'])} guest timelines, "
        f"{n_windows} windows, {len(alerts)} alerts"
    )
    return True


DRAIN_TOP_FIELDS = {
    "kind", "version", "scenario", "mode", "host", "ok", "migrations",
    "completed", "failed", "retries", "aborts", "makespan_ns", "blackout_ns",
    "phases", "wire", "postcopy", "xfer", "guests",
}
WIRE_FIELDS = {
    "rx_packets", "rx_in_order", "rx_duplicate", "rx_out_of_sequence",
    "rx_rnr_drop", "tx_packets", "tx_retransmitted", "rnr_waits",
}
XFER_FIELDS = {
    "streams", "migrations", "bytes_attempted", "bytes_delivered",
    "bytes_lost", "chunks", "retries", "per_stream", "suppression",
}
XFER_STREAM_FIELDS = {"chunks", "attempted", "delivered", "lost", "retries"}
SUPPRESSION_FIELDS = {
    "pages_zero", "pages_same", "pages_delta", "pages_full",
    "bytes_raw", "bytes_shipped", "bytes_suppressed",
}
DRAIN_POSTCOPY_FIELDS = {
    "migrations", "missing_pages", "demand_faults", "prefetched_pages",
    "fetch_bytes", "drain_ns_max", "fault_p99_ns_max",
}
GUEST_POSTCOPY_FIELDS = {
    "missing_pages", "demand_faults", "prefetched_pages", "fetch_requests",
    "fetch_bytes", "retries", "drain_ns", "fault_ns",
}


def check_xfer_streams(path, label, per_stream, totals):
    """Per-stream mux accounting: each stream balances internally and the
    per-stream array sums to the rollup totals exactly."""
    sums = {"chunks": 0, "attempted": 0, "delivered": 0, "lost": 0, "retries": 0}
    for k, s in enumerate(per_stream):
        missing = XFER_STREAM_FIELDS - s.keys()
        if missing:
            return fail(path, f"{label} stream {k}: missing {sorted(missing)}")
        if s["attempted"] != s["delivered"] + s["lost"]:
            return fail(path, f"{label} stream {k}: attempted {s['attempted']} "
                              f"!= delivered {s['delivered']} + lost {s['lost']}")
        for key in sums:
            sums[key] += s[key]
    if per_stream:
        for key, total in totals.items():
            if total is not None and sums[key] != total:
                return fail(path, f"{label}: per-stream {key} sums to "
                                  f"{sums[key]}, rollup says {total}")
    return True


def check_wire(path, w, max_wasted=None):
    """Fleet wire split: classes are sub-counts of what arrived / was sent."""
    missing = WIRE_FIELDS - w.keys()
    if missing:
        return fail(path, f"wire block missing {sorted(missing)}")
    classified = (w["rx_in_order"] + w["rx_duplicate"] +
                  w["rx_out_of_sequence"] + w["rx_rnr_drop"])
    if classified > w["rx_packets"]:
        return fail(path, f"wire: {classified} classified request packets "
                          f"exceed {w['rx_packets']} received")
    if w["tx_retransmitted"] > w["tx_packets"]:
        return fail(path, f"wire: {w['tx_retransmitted']} retransmitted packets "
                          f"exceed {w['tx_packets']} sent")
    if max_wasted is not None and w["rx_packets"] > 0:
        wasted = (w["rx_out_of_sequence"] + w["rx_rnr_drop"]) / w["rx_packets"]
        if wasted > max_wasted:
            return fail(path, f"wire: {wasted:.2%} of received packets dropped "
                              f"(out of sequence or RNR), limit {max_wasted:.2%}")
    return True


def check_drain(path, expect_streams=0, max_wasted=None):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("kind") != "drain_report":
        return fail(path, f"unexpected kind {doc.get('kind')!r}")
    if doc.get("version") != 1:
        return fail(path, f"unexpected version {doc.get('version')!r}")
    missing = DRAIN_TOP_FIELDS - doc.keys()
    if missing:
        return fail(path, f"missing top-level fields {sorted(missing)}")
    if not doc["ok"] or doc["completed"] != doc["migrations"]:
        return fail(path, f"drain did not complete: ok={doc['ok']}, "
                          f"{doc['completed']}/{doc['migrations']} migrations "
                          f"completed, {doc['failed']} failed")
    if not check_wire(path, doc["wire"], max_wasted):
        return False

    # TransferMux rollup: attempted bytes must balance against delivered +
    # lost both in total and per stream, and suppression must conserve raw
    # bytes.
    xf = doc["xfer"]
    missing = XFER_FIELDS - xf.keys()
    if missing:
        return fail(path, f"xfer block missing {sorted(missing)}")
    if xf["bytes_attempted"] != xf["bytes_delivered"] + xf["bytes_lost"]:
        return fail(path, f"xfer does not balance: attempted "
                          f"{xf['bytes_attempted']} != delivered "
                          f"{xf['bytes_delivered']} + lost {xf['bytes_lost']}")
    if not check_xfer_streams(path, "xfer", xf["per_stream"], {
        "chunks": xf["chunks"],
        "attempted": xf["bytes_attempted"],
        "delivered": xf["bytes_delivered"],
        "lost": xf["bytes_lost"],
        "retries": xf["retries"],
    }):
        return False
    sp = xf["suppression"]
    missing = SUPPRESSION_FIELDS - sp.keys()
    if missing:
        return fail(path, f"suppression block missing {sorted(missing)}")
    if sp["bytes_raw"] != sp["bytes_shipped"] + sp["bytes_suppressed"]:
        return fail(path, f"suppression does not balance: raw "
                          f"{sp['bytes_raw']} != shipped {sp['bytes_shipped']} "
                          f"+ suppressed {sp['bytes_suppressed']}")
    if expect_streams:
        if xf["streams"] != expect_streams:
            return fail(path, f"expected {expect_streams} mux streams, "
                              f"report says {xf['streams']}")
        if len(xf["per_stream"]) != expect_streams:
            return fail(path, f"expected {expect_streams} per-stream entries, "
                              f"saw {len(xf['per_stream'])}")
        for k, s in enumerate(xf["per_stream"]):
            if s["chunks"] == 0:
                return fail(path, f"stream {k} carried no chunks — round-robin "
                                  f"sharding is not spreading the load")
    if doc["mode"] not in ("precopy", "postcopy"):
        return fail(path, f"unexpected mode {doc['mode']!r}")
    bk = doc["blackout_ns"]
    if not all(k in bk for k in ("p50", "p99", "max")):
        return fail(path, "blackout_ns lacks p50/p99/max")
    if not (bk["p50"] <= bk["p99"] <= bk["max"]):
        return fail(path, "blackout percentiles are not monotone")
    missing = DRAIN_POSTCOPY_FIELDS - doc["postcopy"].keys()
    if missing:
        return fail(path, f"postcopy rollup missing {sorted(missing)}")
    if doc["mode"] == "precopy" and doc["postcopy"]["migrations"] != 0:
        return fail(path, "precopy leg claims postcopy migrations")
    n_faults = 0
    for g in doc["guests"]:
        gid = g.get("guest")
        wf = g.get("waterfall")
        if not isinstance(wf, dict):
            return fail(path, f"guest {gid}: waterfall is not an object")
        if wf.get("mode") != doc["mode"]:
            return fail(path, f"guest {gid}: waterfall mode {wf.get('mode')!r} "
                              f"!= report mode {doc['mode']!r}")
        # Slices must tile [freeze_at, resume_at] gap-free.
        cursor = wf["freeze_at_ns"]
        for i, s in enumerate(wf.get("slices", [])):
            if s["start_ns"] != cursor:
                return fail(path, f"guest {gid} slice {i}: gap in waterfall "
                                  f"({s['start_ns']} != {cursor})")
            cursor += s["dur_ns"]
        if wf.get("slices") and cursor != wf["resume_at_ns"]:
            return fail(path, f"guest {gid}: waterfall ends at {cursor}, "
                              f"not resume_at {wf['resume_at_ns']}")
        pc = g.get("postcopy")
        if doc["mode"] == "postcopy":
            if not isinstance(pc, dict):
                return fail(path, f"guest {gid}: postcopy leg without fault stats")
            missing = GUEST_POSTCOPY_FIELDS - pc.keys()
            if missing:
                return fail(path, f"guest {gid}: postcopy missing {sorted(missing)}")
            if pc["demand_faults"] + pc["prefetched_pages"] != pc["missing_pages"]:
                return fail(path, f"guest {gid}: fault accounting does not balance")
            fns = pc["fault_ns"]
            if not all(k in fns for k in ("p50", "p99", "max")):
                return fail(path, f"guest {gid}: fault_ns lacks p50/p99/max")
            n_faults += pc["demand_faults"]
        elif pc is not None:
            return fail(path, f"guest {gid}: precopy migration carries postcopy stats")
        gxf = g.get("xfer")
        if not isinstance(gxf, dict):
            return fail(path, f"guest {gid}: no xfer block")
        if gxf["bytes_attempted"] != gxf["bytes_delivered"] + gxf["bytes_lost"]:
            return fail(path, f"guest {gid}: xfer does not balance")
        if expect_streams and gxf["streams"] != expect_streams:
            return fail(path, f"guest {gid}: expected {expect_streams} "
                              f"streams, saw {gxf['streams']}")
    print(f"OK   {path}: drain_report mode={doc['mode']} "
          f"{len(doc['guests'])} guests, {n_faults} demand faults, "
          f"xfer streams={xf['streams']}")
    return True


FT_TOP_FIELDS = {
    "kind", "version", "guest", "primary_host", "backup_host", "ok", "error",
    "protect_start_ns", "protected_at_ns", "end_ns", "epochs", "output_commit",
    "failover",
}
FT_STREAM_TOP_FIELDS = {"count", "chunks", "bytes_lost", "per_stream"}
FT_EPOCH_FIELDS = {
    "captured", "committed", "full_sync_bytes", "epoch_bytes_total",
    "xfer_bytes_attempted", "xfer_bytes_delivered", "transfer_retries",
    "records", "streams",
}
FT_RECORD_FIELDS = {
    "epoch", "captured_at_ns", "committed_at_ns", "commit_latency_ns", "freeze_ns",
    "mem_bytes", "rdma_bytes", "wire_bytes", "released_msgs", "retries",
}
FT_OUTPUT_FIELDS = {
    "buffered", "released", "dropped", "release_delay_p50_ns",
    "release_delay_p99_ns", "release_delay_max_ns",
}


def check_ft(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("kind") != "ft_report":
        return fail(path, f"unexpected kind {doc.get('kind')!r}")
    if doc.get("version") != 1:
        return fail(path, f"unexpected version {doc.get('version')!r}")
    missing = FT_TOP_FIELDS - doc.keys()
    if missing:
        return fail(path, f"missing top-level fields {sorted(missing)}")
    ep = doc["epochs"]
    missing = FT_EPOCH_FIELDS - ep.keys()
    if missing:
        return fail(path, f"epochs block missing {sorted(missing)}")

    # Epoch records: numbers strictly increase, commits are monotone and
    # never precede their capture, and the incremental wire accounting
    # balances against the rollup.
    incr_wire = 0
    prev_epoch = None
    prev_commit = 0
    committed = 0
    for i, r in enumerate(ep["records"]):
        missing = FT_RECORD_FIELDS - r.keys()
        if missing:
            return fail(path, f"epoch record {i}: missing {sorted(missing)}")
        if prev_epoch is not None and r["epoch"] <= prev_epoch:
            return fail(path, f"epoch record {i}: epoch {r['epoch']} "
                              f"does not increase past {prev_epoch}")
        prev_epoch = r["epoch"]
        if r["epoch"] >= 1:
            incr_wire += r["wire_bytes"]
        if r["committed_at_ns"] != 0:
            committed += 1
            if r["committed_at_ns"] < r["captured_at_ns"]:
                return fail(path, f"epoch record {i}: committed before captured")
            if r["committed_at_ns"] < prev_commit:
                return fail(path, f"epoch record {i}: commit times not monotone")
            prev_commit = r["committed_at_ns"]
    if incr_wire != ep["epoch_bytes_total"]:
        return fail(path, f"epoch accounting does not balance: "
                          f"records sum to {incr_wire}, rollup says "
                          f"{ep['epoch_bytes_total']}")
    if committed != ep["committed"]:
        return fail(path, f"{committed} committed records vs rollup {ep['committed']}")
    if ep["xfer_bytes_attempted"] < ep["full_sync_bytes"] + ep["epoch_bytes_total"]:
        return fail(path, "attempted transfer bytes below the first-attempt sum")

    # The epoch sync rides the same mux as migration transfers: every stream
    # must balance and sum back to the rollup.
    st = ep["streams"]
    missing = FT_STREAM_TOP_FIELDS - st.keys()
    if missing:
        return fail(path, f"streams block missing {sorted(missing)}")
    if not check_xfer_streams(path, "epochs.streams", st["per_stream"], {
        "chunks": st["chunks"],
        "attempted": ep["xfer_bytes_attempted"],
        "delivered": ep["xfer_bytes_delivered"],
        "lost": st["bytes_lost"],
        "retries": None,  # chunk re-sends; transfer_retries counts epochs
    }):
        return False
    if st["count"] < 1 or len(st["per_stream"]) != st["count"]:
        return fail(path, f"streams count {st['count']} vs "
                          f"{len(st['per_stream'])} per-stream entries")

    oc = doc["output_commit"]
    missing = FT_OUTPUT_FIELDS - oc.keys()
    if missing:
        return fail(path, f"output_commit missing {sorted(missing)}")
    if not (oc["release_delay_p50_ns"] <= oc["release_delay_p99_ns"]
            <= oc["release_delay_max_ns"]):
        return fail(path, "release-delay percentiles are not monotone")

    fo = doc["failover"]
    if fo.get("occurred"):
        if fo["detected_at_ns"] < fo["killed_at_ns"]:
            return fail(path, "failover detected before the kill")
        if fo["blackout_ns"] != fo["resume_at_ns"] - fo["killed_at_ns"]:
            return fail(path, "failover blackout_ns != resume - killed")
        wf = fo.get("waterfall")
        if not isinstance(wf, dict) or not wf.get("slices"):
            return fail(path, "failover without a waterfall")
        if wf["freeze_at_ns"] != fo["killed_at_ns"]:
            return fail(path, "waterfall must anchor at the kill time")
        cursor = wf["freeze_at_ns"]
        for i, s in enumerate(wf["slices"]):
            if s["start_ns"] != cursor:
                return fail(path, f"waterfall slice {i}: gap "
                                  f"({s['start_ns']} != {cursor})")
            cursor += s["dur_ns"]
        if cursor != wf["resume_at_ns"]:
            return fail(path, f"waterfall ends at {cursor}, "
                              f"not resume_at {wf['resume_at_ns']}")
    print(f"OK   {path}: ft_report guest={doc['guest']} "
          f"{ep['committed']}/{ep['captured']} epochs committed, "
          f"failover={'yes' if fo.get('occurred') else 'no'}")
    return True


EDGE_CLASSES = [
    "wbs_wait", "ckpt_dump", "chunk_wire", "chunk_retry", "restore_apply",
    "qp_reestablish", "ctrl_rtt", "scheduler_hold", "slack",
]
CP_FIELDS = {"window_start_ns", "window_end_ns", "total_ns", "dominant",
             "by_class", "edges"}
CP_ROLLUP_CLASS_FIELDS = {"class", "dominant_of", "total_ns", "max_ns",
                          "p50_ns", "p99_ns"}


def check_cp_block(path, label, cp, blackout_ns=None):
    """One resolved critical path: schema, tiling (edges and by_class both
    sum exactly to the window == blackout), and a consistent dominant."""
    missing = CP_FIELDS - cp.keys()
    if missing:
        return fail(path, f"{label}: critical_path missing {sorted(missing)}")
    window = cp["window_end_ns"] - cp["window_start_ns"]
    if cp["total_ns"] != window:
        return fail(path, f"{label}: total_ns {cp['total_ns']} != window {window}")
    if blackout_ns is not None and cp["total_ns"] != blackout_ns:
        return fail(path, f"{label}: critical path covers {cp['total_ns']} ns "
                          f"but the blackout is {blackout_ns} ns")
    bc = cp["by_class"]
    if set(bc.keys()) != set(EDGE_CLASSES):
        return fail(path, f"{label}: by_class classes {sorted(bc)} != taxonomy")
    if sum(bc.values()) != cp["total_ns"]:
        return fail(path, f"{label}: by_class sums to {sum(bc.values())}, "
                          f"not total_ns {cp['total_ns']} — tiling broken")
    cursor = cp["window_start_ns"]
    for i, e in enumerate(cp["edges"]):
        if e.get("class") not in EDGE_CLASSES:
            return fail(path, f"{label} edge {i}: bad class {e.get('class')!r}")
        if e["start_ns"] != cursor:
            return fail(path, f"{label} edge {i}: gap ({e['start_ns']} != {cursor})")
        if e["dur_ns"] <= 0:
            return fail(path, f"{label} edge {i}: non-positive duration")
        cursor += e["dur_ns"]
    if cursor != cp["window_end_ns"]:
        return fail(path, f"{label}: edges end at {cursor}, "
                          f"not window_end {cp['window_end_ns']}")
    nonslack = {c: bc[c] for c in EDGE_CLASSES[:-1] if bc[c] > 0}
    expect = max(nonslack, key=lambda c: nonslack[c]) if nonslack else "slack"
    if not cp["dominant"]:
        return fail(path, f"{label}: empty dominant edge")
    if nonslack and bc[cp["dominant"]] != nonslack[expect]:
        return fail(path, f"{label}: dominant {cp['dominant']!r} is not the "
                          f"largest non-slack class ({expect!r})")
    return True


def check_drain_critical_path(path, expect_retry_edges=False, expect_dominant=None):
    """--critical-path pins for a drain report: fleet rollup present with the
    full taxonomy, and every completed guest carries a tiling critical path."""
    with open(path) as f:
        doc = json.load(f)
    fleet = doc.get("critical_path")
    if not isinstance(fleet, dict):
        return fail(path, "no fleet critical_path block — was the drain run "
                          "with --critical-path?")
    if fleet.get("migrations", 0) == 0:
        return fail(path, "fleet critical_path covers zero migrations")
    if not fleet.get("dominant"):
        return fail(path, "fleet critical_path without a dominant edge")
    rollup = fleet.get("by_class")
    if not isinstance(rollup, list) or [c.get("class") for c in rollup] != EDGE_CLASSES:
        return fail(path, "fleet by_class must list the full edge taxonomy in order")
    retry_total = 0
    for c in rollup:
        missing = CP_ROLLUP_CLASS_FIELDS - c.keys()
        if missing:
            return fail(path, f"by_class {c.get('class')}: missing {sorted(missing)}")
        if not (c["p50_ns"] <= c["p99_ns"] <= c["max_ns"] <= c["total_ns"]):
            return fail(path, f"by_class {c['class']}: percentile order broken")
        if c["class"] == "chunk_retry":
            retry_total = c["total_ns"]
    n_guests = 0
    for g in doc.get("guests", []):
        gid = g.get("guest")
        cp = g.get("critical_path")
        if cp is None:
            if g.get("ok"):
                return fail(path, f"guest {gid}: completed without a critical path")
            continue
        blackout = g["blackout_ns"] if g.get("ok") else None
        if not check_cp_block(path, f"guest {gid}", cp, blackout):
            return False
        n_guests += 1
    if n_guests != fleet["migrations"]:
        return fail(path, f"{n_guests} guest critical paths vs fleet "
                          f"rollup {fleet['migrations']}")
    if expect_retry_edges and retry_total == 0:
        return fail(path, "expected chunk_retry edges (lossy leg), saw none")
    if expect_dominant and fleet["dominant"] != expect_dominant:
        return fail(path, f"expected dominant edge {expect_dominant!r}, "
                          f"report says {fleet['dominant']!r}")
    print(f"OK   {path}: critical path over {n_guests} guests, "
          f"dominant={fleet['dominant']}")
    return True


def check_ft_critical_path(path):
    """--critical-path pin for an ft_report: a completed failover must carry
    a critical path tiling [killed_at, resume_at] exactly."""
    with open(path) as f:
        doc = json.load(f)
    fo = doc.get("failover", {})
    if not fo.get("occurred"):
        print(f"OK   {path}: no failover, no critical path required")
        return True
    cp = fo.get("critical_path")
    if not isinstance(cp, dict):
        return fail(path, "failover without a critical_path block — was the "
                          "run armed with critical_path?")
    if not check_cp_block(path, "failover", cp, fo["blackout_ns"]):
        return False
    print(f"OK   {path}: failover critical path, dominant={cp['dominant']}")
    return True


def check_postcopy_faster(pre_path, post_path):
    with open(pre_path) as f:
        pre = json.load(f)
    with open(post_path) as f:
        post = json.load(f)
    if pre.get("mode") != "precopy":
        return fail(pre_path, "expected a precopy leg")
    if post.get("mode") != "postcopy":
        return fail(post_path, "expected a postcopy leg")
    pre_p50 = pre["blackout_ns"]["p50"]
    post_p50 = post["blackout_ns"]["p50"]
    if post_p50 >= pre_p50:
        return fail(post_path, f"postcopy blackout p50 {post_p50} is not below "
                               f"precopy p50 {pre_p50}")
    if post["postcopy"]["missing_pages"] == 0:
        return fail(post_path, "postcopy leg left no pages behind — nothing was deferred")
    print(f"OK   postcopy p50 {post_p50} < precopy p50 {pre_p50} "
          f"({pre_p50 - post_p50} ns saved, "
          f"{post['postcopy']['demand_faults']} demand faults)")
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace")
    ap.add_argument("--timeseries")
    ap.add_argument("--record")
    ap.add_argument("--slo")
    ap.add_argument(
        "--expect-alert",
        action="store_true",
        help="fail unless the --slo report contains at least one alert",
    )
    ap.add_argument(
        "--drain",
        action="append",
        default=[],
        help="drain_report JSON to schema-check (repeatable)",
    )
    ap.add_argument(
        "--expect-streams",
        type=int,
        default=0,
        metavar="N",
        help="fail unless each --drain report shows an N-stream mux with "
             "every stream carrying chunks",
    )
    ap.add_argument(
        "--max-wasted",
        type=float,
        default=None,
        metavar="P",
        help="fail when a --drain report drops more than this fraction of its "
             "received packets out of sequence or for RNR",
    )
    ap.add_argument(
        "--ft",
        action="append",
        default=[],
        help="ft_report JSON to schema-check (repeatable)",
    )
    ap.add_argument(
        "--expect-postcopy-faster",
        nargs=2,
        metavar=("PRE", "POST"),
        help="fail unless POST's blackout p50 beats PRE's",
    )
    ap.add_argument(
        "--critical-path",
        action="store_true",
        help="require critical-path blocks (schema + tiling) in every "
             "--drain and --ft report",
    )
    ap.add_argument(
        "--expect-retry-edges",
        action="store_true",
        help="fail unless some drain critical path carries chunk_retry time",
    )
    ap.add_argument(
        "--expect-dominant",
        metavar="EDGE",
        help="fail unless each drain's fleet dominant edge is EDGE",
    )
    args = ap.parse_args()

    ok = True
    if args.trace:
        ok = check_trace(args.trace) and ok
    if args.timeseries:
        ok = check_timeseries(args.timeseries) and ok
    if args.record:
        ok = check_record(args.record) and ok
    if args.slo:
        ok = check_slo(args.slo, expect_alert=args.expect_alert) and ok
    for path in args.drain:
        ok = check_drain(path, expect_streams=args.expect_streams,
                         max_wasted=args.max_wasted) and ok
        if args.critical_path:
            ok = check_drain_critical_path(
                path, expect_retry_edges=args.expect_retry_edges,
                expect_dominant=args.expect_dominant) and ok
    for path in args.ft:
        ok = check_ft(path) and ok
        if args.critical_path:
            ok = check_ft_critical_path(path) and ok
    if args.expect_postcopy_faster:
        ok = check_postcopy_faster(*args.expect_postcopy_faster) and ok
    if not (args.trace or args.timeseries or args.record or args.slo
            or args.drain or args.ft or args.expect_postcopy_faster):
        ap.error("nothing to validate: pass --trace/--timeseries/--record/"
                 "--slo/--drain/--ft/--expect-postcopy-faster")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
