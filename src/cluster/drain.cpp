#include "cluster/drain.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/log.hpp"
#include "obs/sli.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace migr::cluster {

using common::Errc;
using common::Status;

namespace {

std::uint64_t egress_bytes(const net::Fabric& fabric, net::HostId host) {
  const net::PortStats& s = fabric.stats(host);
  return s.data_bytes_tx + s.ctrl_bytes_tx;
}

}  // namespace

DrainWorkflow::~DrainWorkflow() { sampler_.cancel(); }

Status DrainWorkflow::start(net::HostId host, DoneCb done, DrainOptions options) {
  if (active_) return common::err(Errc::failed_precondition, "drain already running");
  if (!model_.fabric().attached(host)) return common::err(Errc::not_found, "no such host");

  options_ = options;
  done_ = std::move(done);
  report_ = DrainReport{};
  report_.host = host;
  report_.started_at = model_.loop().now();
  blackouts_.reset();
  if (const obs::SloEngine* slo = obs::SliHub::global().slo_engine()) {
    slo_alerts_at_start_ = slo->alerts().size();
  }
  slo_deferrals_at_start_ = scheduler_->slo_deferrals();

  model_.set_draining(host, true);
  const std::vector<GuestId> residents = model_.guests_on(host);
  report_.migrations = residents.size();

  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.begin(report_.started_at, "drain", "cluster",
                 "\"host\":" + std::to_string(host) +
                     ",\"guests\":" + std::to_string(residents.size()));
  }

  if (residents.empty()) {
    // Nothing to evacuate: terminal right here, no queue round-trip.
    report_.finished_at = report_.started_at;
    report_.ok = true;
    if (tracer.enabled()) tracer.end(report_.started_at, "drain", "cluster");
    if (done_) done_(report_);
    return Status::ok();
  }

  active_ = true;
  outstanding_ = residents.size();
  wire_at_start_ = model_.wire_counters();

  last_egress_bytes_ = egress_bytes(model_.fabric(), host);
  sampler_ = model_.loop().schedule_every(options_.sample_interval, [this, host] {
    const std::uint64_t now_bytes = egress_bytes(model_.fabric(), host);
    const double bits = static_cast<double>(now_bytes - last_egress_bytes_) * 8.0;
    last_egress_bytes_ = now_bytes;
    report_.egress_gbps.push_back(
        {model_.loop().now(), bits / static_cast<double>(options_.sample_interval)});
  });

  for (GuestId g : residents) {
    scheduler_->submit(MigrationRequest{g, 0, options_.priority},
                       [this](const MigrationOutcome& out) { on_outcome(out); });
  }
  return Status::ok();
}

void DrainWorkflow::on_outcome(const MigrationOutcome& outcome) {
  report_.outcomes.push_back(outcome);
  if (outcome.completed) {
    report_.completed++;
    blackouts_.record(outcome.report.service_blackout());
  } else {
    report_.failed++;
  }
  const std::uint64_t extra_attempts =
      outcome.attempts > 0 ? static_cast<std::uint64_t>(outcome.attempts) - 1 : 0;
  report_.retries += extra_attempts;
  report_.aborts += extra_attempts + (outcome.report.aborted && outcome.failed ? 1 : 0);
  if (outstanding_ > 0 && --outstanding_ == 0) finalize();
}

void DrainWorkflow::finalize() {
  sampler_.cancel();
  active_ = false;
  report_.finished_at = model_.loop().now();
  report_.wire = model_.wire_counters() - wire_at_start_;
  report_.ok = report_.failed == 0 && report_.completed == report_.migrations;
  if (!report_.ok) report_.error = std::to_string(report_.failed) + " migration(s) failed";

  std::sort(report_.outcomes.begin(), report_.outcomes.end(),
            [](const MigrationOutcome& a, const MigrationOutcome& b) {
              return a.guest < b.guest;
            });
  report_.blackout_p50 = blackouts_.percentile(50);
  report_.blackout_p99 = blackouts_.percentile(99);
  report_.blackout_max = blackouts_.count() > 0 ? blackouts_.max() : 0;
  if (const obs::SloEngine* slo = obs::SliHub::global().slo_engine()) {
    report_.slo_alerts = slo->alerts().size() - slo_alerts_at_start_;
  }
  report_.slo_deferrals = scheduler_->slo_deferrals() - slo_deferrals_at_start_;

  // Phase attribution rollup: every outcome's blackout waterfall, keyed by
  // slice name. std::map keeps the rendering order (and thus the determinism
  // diffs) independent of outcome order.
  std::map<std::string, PhaseAttribution> rollup;
  for (const MigrationOutcome& o : report_.outcomes) {
    const migrlib::PhaseSlice* worst = nullptr;
    for (const migrlib::PhaseSlice& s : o.report.waterfall) {
      PhaseAttribution& a = rollup[s.name];
      a.phase = s.name;
      a.total += s.dur;
      a.max = std::max(a.max, s.dur);
      if (worst == nullptr || s.dur > worst->dur) worst = &s;
    }
    if (worst != nullptr) rollup[worst->name].worst_count++;
  }
  report_.phase_rollup.clear();
  for (auto& [name, attr] : rollup) report_.phase_rollup.push_back(std::move(attr));

  // Causal rollup (DESIGN.md §16): per-edge-class totals and nearest-rank
  // percentiles over the per-migration class totals. Fixed enum order so
  // the rendering is deterministic and the JSON schema is config-stable.
  report_.cp_migrations = 0;
  report_.cp_rollup.clear();
  report_.cp_dominant.clear();
  {
    std::array<obs::Histogram, obs::kEdgeClassCount> dists;
    std::array<EdgeAttribution, obs::kEdgeClassCount> classes;
    for (std::size_t c = 0; c < obs::kEdgeClassCount; ++c) {
      classes[c].edge = obs::edge_class_name(static_cast<obs::EdgeClass>(c));
    }
    for (const MigrationOutcome& o : report_.outcomes) {
      const obs::CriticalPath& cp = o.report.critical_path;
      if (!cp.valid) continue;
      report_.cp_migrations++;
      for (std::size_t c = 0; c < obs::kEdgeClassCount; ++c) {
        classes[c].total += cp.by_class[c];
        classes[c].max = std::max(classes[c].max, cp.by_class[c]);
        dists[c].record(cp.by_class[c]);
      }
      classes[static_cast<std::size_t>(cp.dominant())].dominant_count++;
    }
    if (report_.cp_migrations > 0) {
      const EdgeAttribution* fleet_dom = nullptr;
      for (std::size_t c = 0; c < obs::kEdgeClassCount; ++c) {
        classes[c].p50 = dists[c].percentile(50);
        classes[c].p99 = dists[c].percentile(99);
        // The fleet's dominant edge is the one that took the most blackout
        // time summed over the fleet, so one long retry outweighs many
        // migrations each dominated by a short edge.
        if (static_cast<obs::EdgeClass>(c) != obs::EdgeClass::slack &&
            (fleet_dom == nullptr || classes[c].total > fleet_dom->total)) {
          fleet_dom = &classes[c];
        }
      }
      if (fleet_dom != nullptr && fleet_dom->total > 0) {
        report_.cp_dominant = fleet_dom->edge;
      }
      report_.cp_rollup.assign(classes.begin(), classes.end());
    }
  }

  auto& reg = obs::Registry::global();
  reg.counter("cluster.drain.completed").inc();
  reg.gauge("cluster.drain.last_makespan_ns").set(static_cast<double>(report_.makespan()));
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) tracer.end(report_.finished_at, "drain", "cluster");

  MIGR_INFO() << "drain of host " << report_.host << " done: " << report_.completed << "/"
              << report_.migrations << " evacuated, makespan " << report_.makespan()
              << " ns, " << report_.retries << " retries";
  if (done_) done_(report_);
}

DrainReport DrainWorkflow::run(net::HostId host, DrainOptions options) {
  DrainReport out;
  bool done = false;
  auto st = start(
      host,
      [&](const DrainReport& r) {
        out = r;
        done = true;
      },
      options);
  if (!st.is_ok()) {
    out.host = host;
    out.error = st.to_string();
    return out;
  }
  const sim::TimeNs deadline = model_.loop().now() + options.deadline;
  while (!done && model_.loop().now() < deadline) model_.run_for(sim::msec(1));
  if (!done) {
    out = report_;
    out.error = "drain deadline exceeded";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

std::string format_drain_report(const DrainReport& r) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "drain host=%u ok=%d guests=%" PRIu64 " completed=%" PRIu64
                " failed=%" PRIu64 " retries=%" PRIu64 " aborts=%" PRIu64
                " start_ns=%lld end_ns=%lld makespan_ns=%lld\n",
                r.host, r.ok ? 1 : 0, r.migrations, r.completed, r.failed, r.retries,
                r.aborts, static_cast<long long>(r.started_at),
                static_cast<long long>(r.finished_at),
                static_cast<long long>(r.makespan()));
  out += line;
  std::snprintf(line, sizeof(line),
                "blackout_ns p50=%lld p99=%lld max=%lld samples=%zu\n",
                static_cast<long long>(r.blackout_p50),
                static_cast<long long>(r.blackout_p99),
                static_cast<long long>(r.blackout_max), r.egress_gbps.size());
  out += line;
  const rnic::PortCounters& w = r.wire;
  std::snprintf(line, sizeof(line),
                "wire rx=%" PRIu64 " in_order=%" PRIu64 " duplicate=%" PRIu64
                " out_of_sequence=%" PRIu64 " rnr_drop=%" PRIu64 " tx=%" PRIu64
                " retransmitted=%" PRIu64 " rnr_waits=%" PRIu64 "\n",
                w.rx_packets, w.rx_in_order, w.rx_duplicate, w.out_of_sequence,
                w.rx_rnr_drop, w.tx_packets, w.tx_retransmit_packets, w.rnr_waits);
  out += line;
  // TransferMux rollup over every migration's image transfers.
  std::uint32_t xf_streams = 0;
  std::uint64_t xf_attempted = 0, xf_delivered = 0, xf_lost = 0, xf_suppressed = 0;
  for (const MigrationOutcome& o : r.outcomes) {
    xf_streams = std::max(xf_streams, o.report.xfer_streams);
    xf_attempted += o.report.xfer_bytes_attempted;
    xf_delivered += o.report.xfer_bytes_delivered;
    xf_lost += o.report.xfer_bytes_lost;
    xf_suppressed += o.report.xfer_bytes_suppressed;
  }
  std::snprintf(line, sizeof(line),
                "xfer streams=%u attempted=%" PRIu64 " delivered=%" PRIu64
                " lost=%" PRIu64 " suppressed=%" PRIu64 "\n",
                xf_streams, xf_attempted, xf_delivered, xf_lost, xf_suppressed);
  out += line;
  for (const PhaseAttribution& a : r.phase_rollup) {
    std::snprintf(line, sizeof(line),
                  "phase=%s worst_of=%" PRIu64 " total_ns=%lld max_ns=%lld\n",
                  a.phase.c_str(), a.worst_count, static_cast<long long>(a.total),
                  static_cast<long long>(a.max));
    out += line;
  }
  // Causal attribution lines only when some migration ran with critical-path
  // recording: the legacy rendering stays byte-identical to the baselines.
  if (r.cp_migrations > 0) {
    std::snprintf(line, sizeof(line),
                  "critical_path migrations=%" PRIu64 " dominant=%s\n",
                  r.cp_migrations,
                  r.cp_dominant.empty() ? "none" : r.cp_dominant.c_str());
    out += line;
    for (const EdgeAttribution& e : r.cp_rollup) {
      if (e.total == 0) continue;
      std::snprintf(line, sizeof(line),
                    "cp edge=%s dominant_of=%" PRIu64
                    " total_ns=%lld max_ns=%lld p50_ns=%lld p99_ns=%lld\n",
                    e.edge.c_str(), e.dominant_count, static_cast<long long>(e.total),
                    static_cast<long long>(e.max), static_cast<long long>(e.p50),
                    static_cast<long long>(e.p99));
      out += line;
    }
  }
  for (const MigrationOutcome& o : r.outcomes) {
    std::snprintf(line, sizeof(line),
                  "guest=%u src=%u dest=%u attempts=%d ok=%d blackout_ns=%lld "
                  "wf_ns=%lld start_ns=%lld end_ns=%lld\n",
                  o.guest, o.source, o.dest, o.attempts, o.completed ? 1 : 0,
                  static_cast<long long>(o.completed ? o.report.service_blackout() : 0),
                  static_cast<long long>(o.report.waterfall_total()),
                  static_cast<long long>(o.report.start),
                  static_cast<long long>(o.report.end));
    out += line;
  }
  return out;
}

std::string drain_report_json(const DrainReport& r, const std::string& mode,
                              const std::string& scenario) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"kind\":\"drain_report\",\"version\":1,\"scenario\":\"%s\","
                "\"mode\":\"%s\",\"host\":%u,\"ok\":%s,\"migrations\":%" PRIu64
                ",\"completed\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"retries\":%" PRIu64 ",\"aborts\":%" PRIu64
                ",\"makespan_ns\":%lld",
                scenario.c_str(), mode.c_str(), r.host, r.ok ? "true" : "false",
                r.migrations, r.completed, r.failed, r.retries, r.aborts,
                static_cast<long long>(r.makespan()));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"blackout_ns\":{\"p50\":%lld,\"p99\":%lld,\"max\":%lld}",
                static_cast<long long>(r.blackout_p50),
                static_cast<long long>(r.blackout_p99),
                static_cast<long long>(r.blackout_max));
  out += buf;

  out += ",\"phases\":[";
  for (std::size_t i = 0; i < r.phase_rollup.size(); i++) {
    const PhaseAttribution& a = r.phase_rollup[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"phase\":\"%s\",\"worst_of\":%" PRIu64
                  ",\"total_ns\":%lld,\"max_ns\":%lld}",
                  i == 0 ? "" : ",", a.phase.c_str(), a.worst_count,
                  static_cast<long long>(a.total), static_cast<long long>(a.max));
    out += buf;
  }
  out += "]";

  const rnic::PortCounters& w = r.wire;
  std::snprintf(buf, sizeof(buf),
                ",\"wire\":{\"rx_packets\":%" PRIu64 ",\"rx_in_order\":%" PRIu64
                ",\"rx_duplicate\":%" PRIu64 ",\"rx_out_of_sequence\":%" PRIu64
                ",\"rx_rnr_drop\":%" PRIu64 ",\"tx_packets\":%" PRIu64
                ",\"tx_retransmitted\":%" PRIu64 ",\"rnr_waits\":%" PRIu64 "}",
                w.rx_packets, w.rx_in_order, w.rx_duplicate, w.out_of_sequence,
                w.rx_rnr_drop, w.tx_packets, w.tx_retransmit_packets, w.rnr_waits);
  out += buf;

  // Fleet causal rollup, present only when critical-path attribution ran —
  // cp-off artifacts stay byte-identical to pre-feature ones. All edge
  // classes appear in enum order so the block's schema is fixed.
  if (r.cp_migrations > 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"critical_path\":{\"migrations\":%" PRIu64
                  ",\"dominant\":\"%s\",\"by_class\":[",
                  r.cp_migrations,
                  r.cp_dominant.empty() ? "none" : r.cp_dominant.c_str());
    out += buf;
    for (std::size_t c = 0; c < r.cp_rollup.size(); c++) {
      const EdgeAttribution& e = r.cp_rollup[c];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"class\":\"%s\",\"dominant_of\":%" PRIu64
                    ",\"total_ns\":%lld,\"max_ns\":%lld,\"p50_ns\":%lld"
                    ",\"p99_ns\":%lld}",
                    c == 0 ? "" : ",", e.edge.c_str(), e.dominant_count,
                    static_cast<long long>(e.total), static_cast<long long>(e.max),
                    static_cast<long long>(e.p50), static_cast<long long>(e.p99));
      out += buf;
    }
    out += "]}";
  }

  // Fleet post-copy rollup: always present so the schema is mode-stable
  // (all-zero on a pure pre-copy leg).
  std::uint64_t pc_migr = 0, pc_missing = 0, pc_faults = 0, pc_prefetched = 0,
                pc_bytes = 0;
  long long pc_drain_max = 0, pc_p99_max = 0;
  for (const MigrationOutcome& o : r.outcomes) {
    const migrlib::PostcopyStats& pc = o.report.postcopy;
    if (!pc.enabled) continue;
    pc_migr++;
    pc_missing += pc.missing_pages;
    pc_faults += pc.demand_faults;
    pc_prefetched += pc.prefetched_pages;
    pc_bytes += pc.fetch_bytes;
    pc_drain_max = std::max(pc_drain_max, static_cast<long long>(pc.drain_ns));
    pc_p99_max = std::max(pc_p99_max, static_cast<long long>(pc.fault_p99_ns));
  }
  std::snprintf(buf, sizeof(buf),
                ",\"postcopy\":{\"migrations\":%" PRIu64 ",\"missing_pages\":%" PRIu64
                ",\"demand_faults\":%" PRIu64 ",\"prefetched_pages\":%" PRIu64
                ",\"fetch_bytes\":%" PRIu64
                ",\"drain_ns_max\":%lld,\"fault_p99_ns_max\":%lld}",
                pc_migr, pc_missing, pc_faults, pc_prefetched, pc_bytes, pc_drain_max,
                pc_p99_max);
  out += buf;

  // TransferMux + suppression rollup (suppression all-zero when it is off).
  // `migrations` counts the migrations that put chunks on the wire (not the
  // rejected or no-op requests). The per-stream array is summed across
  // migrations by stream index; balance (attempted == delivered + lost,
  // raw == shipped + suppressed) holds per stream and in total.
  std::uint32_t xf_streams = 0;
  std::uint64_t xf_migr = 0, xf_attempted = 0, xf_delivered = 0, xf_lost = 0,
                xf_chunks = 0, xf_retries = 0;
  std::uint64_t sp_zero = 0, sp_same = 0, sp_delta = 0, sp_full = 0, sp_raw = 0,
                sp_shipped = 0, sp_suppressed = 0;
  std::vector<migrlib::XferStreamStats> per_stream;
  for (const MigrationOutcome& o : r.outcomes) {
    const MigrationReport& m = o.report;
    if (m.xfer_chunks > 0) xf_migr++;
    xf_streams = std::max(xf_streams, m.xfer_streams);
    xf_attempted += m.xfer_bytes_attempted;
    xf_delivered += m.xfer_bytes_delivered;
    xf_lost += m.xfer_bytes_lost;
    xf_chunks += m.xfer_chunks;
    xf_retries += m.transfer_retries;
    if (per_stream.size() < m.xfer_stream_stats.size()) {
      per_stream.resize(m.xfer_stream_stats.size());
    }
    for (std::size_t k = 0; k < m.xfer_stream_stats.size(); k++) {
      per_stream[k].chunks += m.xfer_stream_stats[k].chunks;
      per_stream[k].bytes_attempted += m.xfer_stream_stats[k].bytes_attempted;
      per_stream[k].bytes_delivered += m.xfer_stream_stats[k].bytes_delivered;
      per_stream[k].retries += m.xfer_stream_stats[k].retries;
    }
    sp_zero += m.xfer_pages_zero;
    sp_same += m.xfer_pages_same;
    sp_delta += m.xfer_pages_delta;
    sp_full += m.xfer_pages_full;
    sp_raw += m.xfer_bytes_raw;
    sp_shipped += m.xfer_bytes_shipped;
    sp_suppressed += m.xfer_bytes_suppressed;
  }
  std::snprintf(buf, sizeof(buf),
                ",\"xfer\":{\"streams\":%u,\"migrations\":%" PRIu64
                ",\"bytes_attempted\":%" PRIu64 ",\"bytes_delivered\":%" PRIu64
                ",\"bytes_lost\":%" PRIu64 ",\"chunks\":%" PRIu64
                ",\"retries\":%" PRIu64 ",\"per_stream\":",
                xf_streams, xf_migr, xf_attempted, xf_delivered, xf_lost, xf_chunks,
                xf_retries);
  out += buf;
  migrlib::append_streams_json(out, per_stream);
  std::snprintf(buf, sizeof(buf),
                ",\"suppression\":{\"pages_zero\":%" PRIu64 ",\"pages_same\":%" PRIu64
                ",\"pages_delta\":%" PRIu64 ",\"pages_full\":%" PRIu64
                ",\"bytes_raw\":%" PRIu64 ",\"bytes_shipped\":%" PRIu64
                ",\"bytes_suppressed\":%" PRIu64 "}}",
                sp_zero, sp_same, sp_delta, sp_full, sp_raw, sp_shipped, sp_suppressed);
  out += buf;

  out += ",\"guests\":[";
  for (std::size_t i = 0; i < r.outcomes.size(); i++) {
    const MigrationOutcome& o = r.outcomes[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"guest\":%u,\"src\":%u,\"dest\":%u,\"attempts\":%d,"
                  "\"ok\":%s,\"blackout_ns\":%lld,\"waterfall\":",
                  i == 0 ? "" : ",", o.guest, o.source, o.dest, o.attempts,
                  o.completed ? "true" : "false",
                  static_cast<long long>(o.completed ? o.report.service_blackout() : 0));
    out += buf;
    out += o.report.waterfall_json();
    if (o.report.critical_path.valid) {
      out += ",\"critical_path\":";
      out += o.report.critical_path.json();
    }
    if (o.report.postcopy.enabled) {
      out += ",\"postcopy\":";
      out += o.report.postcopy.json();
    }
    std::snprintf(buf, sizeof(buf),
                  ",\"xfer\":{\"streams\":%u,\"bytes_attempted\":%" PRIu64
                  ",\"bytes_delivered\":%" PRIu64 ",\"bytes_lost\":%" PRIu64
                  ",\"chunks\":%" PRIu64 ",\"bytes_suppressed\":%" PRIu64 "}",
                  o.report.xfer_streams, o.report.xfer_bytes_attempted,
                  o.report.xfer_bytes_delivered, o.report.xfer_bytes_lost,
                  o.report.xfer_chunks, o.report.xfer_bytes_suppressed);
    out += buf;
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace migr::cluster
