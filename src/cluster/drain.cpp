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

constexpr int kDrainPriority = 10;  // drains outrank default-priority single moves
constexpr sim::DurationNs kSampleInterval = sim::msec(1);  // bandwidth-vs-time sampling
constexpr sim::DurationNs kRunDeadline = sim::sec(600);    // for the synchronous run()

std::uint64_t egress_bytes(const net::Fabric& fabric, net::HostId host) {
  const net::PortStats& s = fabric.stats(host);
  return s.data_bytes_tx + s.ctrl_bytes_tx;
}

}  // namespace

DrainWorkflow::~DrainWorkflow() { sampler_.cancel(); }

Status DrainWorkflow::start(net::HostId host, DoneCb done) {
  if (active_) return common::err(Errc::failed_precondition, "drain already running");
  if (!model_.fabric().attached(host)) return common::err(Errc::not_found, "no such host");

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
  sampler_ = model_.loop().schedule_every(kSampleInterval, [this, host] {
    const std::uint64_t now_bytes = egress_bytes(model_.fabric(), host);
    const double bits = static_cast<double>(now_bytes - last_egress_bytes_) * 8.0;
    last_egress_bytes_ = now_bytes;
    report_.egress_gbps.push_back(
        {model_.loop().now(), bits / static_cast<double>(kSampleInterval)});
  });

  for (GuestId g : residents) {
    scheduler_->submit(MigrationRequest{g, 0, kDrainPriority},
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

DrainReport DrainWorkflow::run(net::HostId host) {
  DrainReport out;
  bool done = false;
  auto st = start(host, [&](const DrainReport& r) {
    out = r;
    done = true;
  });
  if (!st.is_ok()) {
    out.host = host;
    out.error = st.to_string();
    return out;
  }
  const sim::TimeNs deadline = model_.loop().now() + kRunDeadline;
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
  common::Json j(out);
  j.obj().key("kind").val("drain_report").key("version").val(1).key("scenario").val(scenario);
  j.key("mode").val(mode).key("host").val(r.host).key("ok").val(r.ok);
  j.key("migrations").val(r.migrations).key("completed").val(r.completed);
  j.key("failed").val(r.failed).key("retries").val(r.retries).key("aborts").val(r.aborts);
  j.key("makespan_ns").val(r.makespan());
  j.key("blackout_ns").obj().key("p50").val(r.blackout_p50).key("p99").val(r.blackout_p99);
  j.key("max").val(r.blackout_max).end();

  j.key("phases").arr();
  for (const PhaseAttribution& a : r.phase_rollup) {
    j.obj().key("phase").val(a.phase).key("worst_of").val(a.worst_count);
    j.key("total_ns").val(a.total).key("max_ns").val(a.max).end();
  }
  j.end();

  const rnic::PortCounters& w = r.wire;
  j.key("wire").obj().key("rx_packets").val(w.rx_packets).key("rx_in_order").val(w.rx_in_order);
  j.key("rx_duplicate").val(w.rx_duplicate).key("rx_out_of_sequence").val(w.out_of_sequence);
  j.key("rx_rnr_drop").val(w.rx_rnr_drop).key("tx_packets").val(w.tx_packets);
  j.key("tx_retransmitted").val(w.tx_retransmit_packets).key("rnr_waits").val(w.rnr_waits);
  j.end();

  // Fleet causal rollup, present only when critical-path attribution ran —
  // cp-off artifacts stay byte-identical to pre-feature ones. All edge
  // classes appear in enum order so the block's schema is fixed.
  if (r.cp_migrations > 0) {
    j.key("critical_path").obj().key("migrations").val(r.cp_migrations);
    j.key("dominant").val(r.cp_dominant.empty() ? "none" : r.cp_dominant);
    j.key("by_class").arr();
    for (const EdgeAttribution& e : r.cp_rollup) {
      j.obj().key("class").val(e.edge).key("dominant_of").val(e.dominant_count);
      j.key("total_ns").val(e.total).key("max_ns").val(e.max).key("p50_ns").val(e.p50);
      j.key("p99_ns").val(e.p99).end();
    }
    j.end().end();
  }

  // Fleet post-copy rollup: always present so the schema is mode-stable
  // (all-zero on a pure pre-copy leg).
  std::uint64_t pc_migr = 0, pc_missing = 0, pc_faults = 0, pc_prefetched = 0,
                pc_bytes = 0;
  std::int64_t pc_drain_max = 0, pc_p99_max = 0;
  for (const MigrationOutcome& o : r.outcomes) {
    const migrlib::PostcopyStats& pc = o.report.postcopy;
    if (!pc.enabled) continue;
    pc_migr++;
    pc_missing += pc.missing_pages;
    pc_faults += pc.demand_faults;
    pc_prefetched += pc.prefetched_pages;
    pc_bytes += pc.fetch_bytes;
    pc_drain_max = std::max<std::int64_t>(pc_drain_max, pc.drain_ns);
    pc_p99_max = std::max<std::int64_t>(pc_p99_max, pc.fault_p99_ns);
  }
  j.key("postcopy").obj().key("migrations").val(pc_migr).key("missing_pages").val(pc_missing);
  j.key("demand_faults").val(pc_faults).key("prefetched_pages").val(pc_prefetched);
  j.key("fetch_bytes").val(pc_bytes).key("drain_ns_max").val(pc_drain_max);
  j.key("fault_p99_ns_max").val(pc_p99_max).end();

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
  j.key("xfer").obj().key("streams").val(xf_streams).key("migrations").val(xf_migr);
  j.key("bytes_attempted").val(xf_attempted).key("bytes_delivered").val(xf_delivered);
  j.key("bytes_lost").val(xf_lost).key("chunks").val(xf_chunks).key("retries").val(xf_retries);
  j.key("per_stream");
  migrlib::write_streams(j, per_stream);
  j.key("suppression").obj().key("pages_zero").val(sp_zero).key("pages_same").val(sp_same);
  j.key("pages_delta").val(sp_delta).key("pages_full").val(sp_full);
  j.key("bytes_raw").val(sp_raw).key("bytes_shipped").val(sp_shipped);
  j.key("bytes_suppressed").val(sp_suppressed).end().end();

  j.key("guests").arr();
  for (const MigrationOutcome& o : r.outcomes) {
    const MigrationReport& m = o.report;
    j.obj().key("guest").val(o.guest).key("src").val(o.source).key("dest").val(o.dest);
    j.key("attempts").val(o.attempts).key("ok").val(o.completed);
    j.key("blackout_ns").val(o.completed ? m.service_blackout() : 0).key("waterfall");
    m.write_waterfall(j);
    if (m.critical_path.valid) {
      j.key("critical_path");
      m.critical_path.write(j);
    }
    if (m.postcopy.enabled) {
      j.key("postcopy");
      m.postcopy.write(j);
    }
    j.key("xfer").obj().key("streams").val(m.xfer_streams);
    j.key("bytes_attempted").val(m.xfer_bytes_attempted);
    j.key("bytes_delivered").val(m.xfer_bytes_delivered).key("bytes_lost").val(m.xfer_bytes_lost);
    j.key("chunks").val(m.xfer_chunks).key("bytes_suppressed").val(m.xfer_bytes_suppressed);
    j.end().end();
  }
  j.end().end();
  return out;
}

}  // namespace migr::cluster
