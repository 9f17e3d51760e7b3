// Fleet drain sweep: evacuate one host of an 8-host fleet at fleet
// concurrency 1/2/4/8 and report the control-plane numbers that matter for
// maintenance windows — drain makespan and the per-migration service
// blackout distribution (p50/p99), plus aborts/retries and the peak egress
// observed on the drained host's port.
//
//   build/bench/bench_cluster_drain
//
// Artifact mode: any of --trace/--timeseries/--record/--loss/--seed/--conc
// switches the binary to a single instrumented drain that writes the named
// observability artifacts instead of the sweep — the CI blackout-anatomy
// stage and EXPERIMENTS.md recipes drive it this way:
//
//   bench_cluster_drain --loss 0.01 --seed 11 --conc 4 --trace drain.trace.json
//       --timeseries drain.ts.csv --record drain.cap.json      (one command)
//
// Either mode exits 1 if a drain fails or leaves a stuck QP behind.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "cluster/drain.hpp"
#include "common/json.hpp"
#include "fault/fault.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sli.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rnic/cost_model.hpp"

using namespace migr;
using namespace migr::cluster;

namespace {

struct Options {
  std::string trace_path;
  std::string timeseries_path;
  std::string record_path;
  double loss = 0.0;
  double ctrl_loss = 0.0;  // ctrl-plane message loss (exercises chunk retries)
  std::uint64_t seed = 42;
  std::uint32_t conc = 4;
  bool artifact_mode = false;  // any flag given: single instrumented drain
  std::string slo_spec;        // arm SLI + burn-rate engine + policy compare
  std::string slo_out = "slo_report.json";
  std::string sli_csv;
  migrlib::MigrationMode mode = migrlib::MigrationMode::precopy;
  std::string drain_out;       // drain_report_json artifact path
  std::uint32_t mem_mb = 2;    // per-guest dirty MR size (write-heavy knob)
  // Parallel transfer streams. --streams engages per-stream pacing (25 Gbps
  // default unless --stream-gbps overrides) even at N=1, so single- vs
  // multi-stream legs compare pipelines, not pacing on/off.
  std::uint32_t streams = 1;
  double stream_gbps = -1.0;   // <0 = unset
  bool streams_given = false;
  bool suppress = false;       // zero/delta page suppression in pre-copy
  bool critical_path = false;  // per-migration blackout edge attribution
  std::uint64_t trace_max_events = 0;  // 0 = tracer default capacity
  // CRIU final-restore base cost override (0 = model default). A pre-synced
  // restore target (as in the FT bench) makes the blackout wire-bound, which
  // is what lets loss-driven retry edges show up as the dominant class.
  std::uint32_t restore_ms = 0;

  double effective_gbps() const {
    if (stream_gbps >= 0) return stream_gbps;
    return streams_given ? 25.0 : 0.0;
  }
};

struct SweepRow {
  std::uint32_t concurrency = 0;
  DrainReport report;
  double peak_gbps = 0;
  std::size_t stuck_qps = 0;
  std::uint64_t events = 0;  // dispatched by the model's loop, settle included

  /// Prints why the drain is a failure, if it is one.
  bool failed_loudly() const {
    if (!report.ok) std::printf("  !! drain incomplete: %s\n", report.error.c_str());
    if (stuck_qps != 0) {
      std::printf("  !! %zu stuck QP(s) after drain at concurrency %u\n", stuck_qps,
                  concurrency);
    }
    return !report.ok || stuck_qps != 0;
  }
};

// Metric time-series sample period of an artifact-mode drain.
constexpr sim::DurationNs kSampleInterval = sim::usec(250);

/// One drain as `opt` describes it. An SLO spec turns on SLO-aware
/// admission; the caller arms the hub and its engine.
SweepRow run_drain(const Options& opt, bool traced, obs::TimeSeriesSampler* sampler) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = opt.seed;
  ClusterModel model(cfg);
  if (obs::SliHub::global().enabled()) model.enable_sli(obs::SliHub::global());
  if (traced) obs::Tracer::global().set_clock(&model.loop());
  if (sampler != nullptr) {
    model.loop().schedule_every(kSampleInterval,
                                [&model, sampler] { sampler->sample(model.loop().now()); });
  }

  // Eight busy guests on host 1, each messaging a partner pinned on one of
  // hosts 2..8 (round-robin): the drain moves real dirty memory under live
  // SEND/RECV traffic.
  TrafficProfile profile;
  profile.send_interval = sim::usec(20);
  profile.msg_bytes = 2048;
  profile.extra_mem_bytes = static_cast<std::uint64_t>(opt.mem_mb) << 20;
  profile.dirty_interval = sim::msec(1);
  for (GuestId g = 0; g < 8; ++g) {
    (void)model.add_guest(1, 100 + g, profile).value();
    (void)model.add_guest(2 + g % 7, 200 + g, profile).value();
    if (!model.connect_guests(100 + g, 200 + g).is_ok()) std::abort();
  }
  model.run_for(sim::msec(5));  // reach steady state before draining

  fault::ScenarioRunner scenario(model.loop(), model.fabric());
  if (opt.loss > 0 || opt.ctrl_loss > 0) {
    fault::FaultPlan plan;
    plan.baseline(opt.loss);
    if (opt.ctrl_loss > 0) plan.ctrl_loss(opt.ctrl_loss);
    scenario.run(plan);
  }

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = opt.conc;
  scfg.limits.max_concurrent_per_source = opt.conc;
  scfg.limits.max_concurrent_per_dest = opt.conc;
  scfg.slo_defer = !opt.slo_spec.empty();
  scfg.migration.mode = opt.mode;
  scfg.migration.xfer_streams = opt.streams;
  scfg.migration.xfer_stream_gbps = opt.effective_gbps();
  scfg.migration.suppress_pages = opt.suppress;
  scfg.migration.critical_path = opt.critical_path;
  if (opt.restore_ms > 0) {
    scfg.migration.criu_costs.final_restore_base = sim::msec(opt.restore_ms);
  }
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);

  SweepRow row;
  row.concurrency = opt.conc;
  row.report = drain.run(1);
  for (const BandwidthSample& s : row.report.egress_gbps) {
    row.peak_gbps = std::max(row.peak_gbps, s.gbps);
  }
  // A QP is stuck once its oldest WQE has made no progress for a whole RC
  // retransmit timeout; one on a lossy fabric may wait that long for its
  // timer before it retransmits.
  row.stuck_qps = model.audit_stuck_qps(rnic::CostModel{}.retransmit_timeout);
  // Close every live SLI window while the model (and its retransmit-counter
  // sources) is still alive; the hub only gets read after this.
  model.run_for(sim::msec(2));  // let post-resume traffic settle -> recovery
  obs::SliHub::global().flush(model.loop().now());
  row.events = model.loop().events_dispatched();
  return row;
}

/// One policy leg's service-quality summary for the policy_compare section.
struct PolicyStats {
  sim::DurationNs makespan = 0;
  sim::DurationNs blackout_p99 = 0;
  std::int64_t brownout_p99_ns = 0;  // p99 over non-idle windows' p99s
  double goodput_loss_bytes = 0;
  std::uint64_t alerts = 0;
  std::uint64_t deferrals = 0;
};

PolicyStats collect_policy_stats(const DrainReport& report) {
  PolicyStats s;
  s.makespan = report.makespan();
  s.blackout_p99 = report.blackout_p99;
  s.alerts = report.slo_alerts;
  s.deferrals = report.slo_deferrals;
  auto& hub = obs::SliHub::global();
  obs::Histogram brownout;
  for (std::uint32_t id : hub.guest_ids()) {
    const obs::GuestSli* g = hub.find(id);
    if (g == nullptr) continue;
    for (const obs::SliWindow& w : g->windows()) {
      if (w.phase != obs::ServicePhase::idle && w.msgs > 0) brownout.record(w.p99_ns);
    }
    const obs::BrownoutAttribution att = hub.attribution(id);
    if (att.valid) s.goodput_loss_bytes += att.goodput_loss_bytes;
  }
  s.brownout_p99_ns = brownout.percentile(99);
  return s;
}

void write_policy_stats(common::Json& j, const PolicyStats& s) {
  j.obj().key("makespan_ns").val(s.makespan).key("blackout_p99_ns").val(s.blackout_p99);
  j.key("brownout_p99_ns").val(s.brownout_p99_ns);
  j.key("goodput_loss_bytes").fixed(s.goodput_loss_bytes, 1);
  j.key("slo_alerts").val(s.alerts).key("slo_deferrals").val(s.deferrals).end();
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      o.trace_path = need_value("--trace");
    } else if (arg == "--timeseries") {
      o.timeseries_path = need_value("--timeseries");
    } else if (arg == "--record") {
      o.record_path = need_value("--record");
    } else if (arg == "--loss") {
      o.loss = std::strtod(need_value("--loss"), nullptr);
    } else if (arg == "--ctrl-loss") {
      o.ctrl_loss = std::strtod(need_value("--ctrl-loss"), nullptr);
    } else if (arg == "--seed") {
      o.seed = std::strtoull(need_value("--seed"), nullptr, 10);
    } else if (arg == "--conc") {
      o.conc = static_cast<std::uint32_t>(std::strtoul(need_value("--conc"), nullptr, 10));
    } else if (arg == "--slo") {
      o.slo_spec = need_value("--slo");
    } else if (arg == "--slo-out") {
      o.slo_out = need_value("--slo-out");
    } else if (arg == "--sli-csv") {
      o.sli_csv = need_value("--sli-csv");
    } else if (arg == "--mode") {
      const std::string m = need_value("--mode");
      if (m == "precopy") {
        o.mode = migrlib::MigrationMode::precopy;
      } else if (m == "postcopy") {
        o.mode = migrlib::MigrationMode::postcopy;
      } else {
        std::fprintf(stderr, "--mode must be precopy or postcopy\n");
        std::exit(2);
      }
    } else if (arg == "--drain-out") {
      o.drain_out = need_value("--drain-out");
    } else if (arg == "--mem-mb") {
      o.mem_mb = static_cast<std::uint32_t>(std::strtoul(need_value("--mem-mb"), nullptr, 10));
      if (o.mem_mb == 0) o.mem_mb = 1;
    } else if (arg == "--streams") {
      o.streams = static_cast<std::uint32_t>(std::strtoul(need_value("--streams"), nullptr, 10));
      if (o.streams == 0) o.streams = 1;
      o.streams_given = true;
    } else if (arg == "--stream-gbps") {
      o.stream_gbps = std::strtod(need_value("--stream-gbps"), nullptr);
    } else if (arg == "--suppress") {
      o.suppress = true;
    } else if (arg == "--critical-path") {
      o.critical_path = true;
    } else if (arg == "--trace-max-events") {
      o.trace_max_events =
          std::strtoull(need_value("--trace-max-events"), nullptr, 10);
    } else if (arg == "--restore-ms") {
      o.restore_ms =
          static_cast<std::uint32_t>(std::strtoul(need_value("--restore-ms"), nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace OUT.json] [--timeseries OUT.csv|OUT.json]\n"
                   "          [--record OUT.json] [--loss P] [--ctrl-loss P] [--seed S] [--conc N]\n"
                   "          [--slo SPEC] [--slo-out OUT.json] [--sli-csv OUT.csv]\n"
                   "          [--mode precopy|postcopy] [--drain-out OUT.json] [--mem-mb N]\n"
                   "          [--streams N] [--stream-gbps G] [--suppress]\n"
                   "          [--critical-path] [--trace-max-events N] [--restore-ms N]\n",
                   argv[0]);
      std::exit(2);
    }
    o.artifact_mode = true;
  }
  return o;
}

int run_artifact_mode(const Options& opt) {
  auto& hub = obs::SliHub::global();
  std::vector<obs::SloRule> slo_rules;
  std::unique_ptr<obs::SloEngine> engine;
  const bool sli_on = !opt.slo_spec.empty() || !opt.sli_csv.empty();
  if (sli_on) hub.set_enabled(true);
  if (!opt.slo_spec.empty()) {
    std::string err;
    if (!obs::parse_slo_spec(opt.slo_spec, &slo_rules, &err)) {
      std::fprintf(stderr, "bad --slo spec: %s\n", err.c_str());
      return 2;
    }
  }

  // Baseline leg of the policy comparison: same fleet/seed/loss, scheduler
  // blind to SLO burn. Runs before any trace/recorder arming so the main
  // leg's artifacts cover only the main leg.
  PolicyStats base{};
  if (!slo_rules.empty()) {
    hub.clear();
    engine = std::make_unique<obs::SloEngine>(slo_rules);
    hub.set_slo_engine(engine.get());
    Options baseline = opt;
    baseline.slo_spec.clear();  // admission blind to SLO burn
    baseline.critical_path = false;
    baseline.restore_ms = 0;
    const SweepRow b = run_drain(baseline, /*traced=*/false, nullptr);
    base = collect_policy_stats(b.report);
    hub.set_slo_engine(nullptr);
    if (b.failed_loudly()) {
      std::fprintf(stderr, "bench_cluster_drain: the baseline policy leg failed\n");
      return 1;
    }
  }

  const bool traced = !opt.trace_path.empty();
  if (traced) {
    auto& tracer = obs::Tracer::global();
    tracer.set_enabled(true);
    tracer.set_flush_path(opt.trace_path);
    if (opt.trace_max_events > 0) {
      // Bounded-memory tracing: cap the ring and spill full batches to the
      // trace file instead of evicting (long drains keep every event).
      tracer.set_capacity(static_cast<std::size_t>(opt.trace_max_events));
      if (auto st = tracer.set_incremental_path(opt.trace_path); !st.is_ok()) {
        std::fprintf(stderr, "cannot open trace spill file: %s\n",
                     st.to_string().c_str());
        return 1;
      }
    }
  }
  if (!opt.record_path.empty()) obs::FlightRecorder::global().set_enabled(true);
  obs::TimeSeriesSampler sampler;
  obs::TimeSeriesSampler* sp = opt.timeseries_path.empty() ? nullptr : &sampler;

  if (sli_on) hub.clear();
  if (!slo_rules.empty()) {
    engine = std::make_unique<obs::SloEngine>(slo_rules);
    hub.set_slo_engine(engine.get());
  }
  const SweepRow row = run_drain(opt, traced, sp);
  std::fputs(format_drain_report(row.report).c_str(), stdout);
  std::printf("sim: %llu events dispatched\n", static_cast<unsigned long long>(row.events));
  if (!opt.drain_out.empty()) {
    char scen[160];
    std::snprintf(scen, sizeof scen,
                  "bench_cluster_drain conc=%u loss=%.3f seed=%llu mem_mb=%u", opt.conc,
                  opt.loss, static_cast<unsigned long long>(opt.seed), opt.mem_mb);
    const std::string json =
        drain_report_json(row.report, migrlib::migration_mode_name(opt.mode), scen);
    if (auto st = common::write_file(opt.drain_out, json); !st.is_ok()) {
      std::fprintf(stderr, "cannot write drain report: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("drain report (%s): written to %s\n",
                migrlib::migration_mode_name(opt.mode), opt.drain_out.c_str());
  }
  for (const PhaseAttribution& a : row.report.phase_rollup) {
    std::printf("anatomy: %-24s worst_of=%2llu total=%8.3f ms max=%8.3f ms\n",
                a.phase.c_str(), static_cast<unsigned long long>(a.worst_count),
                sim::to_msec(a.total), sim::to_msec(a.max));
  }
  if (row.report.cp_migrations > 0) {
    std::printf("critical path: dominant=%s across %llu migration(s)\n",
                row.report.cp_dominant.empty() ? "none" : row.report.cp_dominant.c_str(),
                static_cast<unsigned long long>(row.report.cp_migrations));
  }

  int rc = 0;
  if (traced) {
    auto& tracer = obs::Tracer::global();
    if (auto st = tracer.write_chrome_json(opt.trace_path); !st.is_ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n", st.to_string().c_str());
      rc = 1;
    }
    tracer.set_clock(nullptr);
  }
  if (!opt.timeseries_path.empty()) {
    if (auto st = sampler.write(opt.timeseries_path); !st.is_ok()) {
      std::fprintf(stderr, "cannot write timeseries: %s\n", st.to_string().c_str());
      rc = 1;
    }
  }
  if (!opt.record_path.empty()) {
    auto& rec = obs::FlightRecorder::global();
    if (auto st = rec.write_json(opt.record_path); !st.is_ok()) {
      std::fprintf(stderr, "cannot write capture: %s\n", st.to_string().c_str());
      rc = 1;
    }
    std::printf("flight recorder: %llu packet(s) seen, %llu dump(s)\n",
                static_cast<unsigned long long>(rec.total_recorded()),
                static_cast<unsigned long long>(rec.dumps_triggered()));
  }
  if (!opt.slo_spec.empty()) {
    const PolicyStats defer = collect_policy_stats(row.report);
    std::printf("slo policy: baseline brownout_p99=%.1f us alerts=%llu | "
                "slo_defer brownout_p99=%.1f us alerts=%llu deferrals=%llu\n",
                static_cast<double>(base.brownout_p99_ns) / 1000.0,
                static_cast<unsigned long long>(base.alerts),
                static_cast<double>(defer.brownout_p99_ns) / 1000.0,
                static_cast<unsigned long long>(defer.alerts),
                static_cast<unsigned long long>(defer.deferrals));
    char scen[160];
    std::snprintf(scen, sizeof scen, "bench_cluster_drain conc=%u loss=%.3f seed=%llu",
                  opt.conc, opt.loss, static_cast<unsigned long long>(opt.seed));
    std::string extra;
    common::Json j(extra);
    j.key("policy_compare").obj().key("baseline");
    write_policy_stats(j, base);
    j.key("slo_defer");
    write_policy_stats(j, defer);
    j.end();
    const std::string body = obs::export_slo_json(hub, engine.get(), scen, extra);
    if (auto st = common::write_file(opt.slo_out, body); !st.is_ok()) {
      std::fprintf(stderr, "cannot write slo report: %s\n", st.to_string().c_str());
      rc = 1;
    } else {
      std::printf("slo report: %zu alert(s), written to %s\n",
                  engine ? engine->alerts().size() : 0, opt.slo_out.c_str());
    }
  }
  if (!opt.sli_csv.empty()) {
    if (auto st = common::write_file(opt.sli_csv, hub.export_csv()); !st.is_ok()) {
      std::fprintf(stderr, "cannot write sli csv: %s\n", st.to_string().c_str());
      rc = 1;
    }
  }
  hub.set_slo_engine(nullptr);
  if (row.failed_loudly()) {
    std::fprintf(stderr, "bench_cluster_drain: the drain failed\n");
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.artifact_mode) return run_artifact_mode(opt);
  bench::print_header(
      "Fleet drain sweep — 8 hosts, 8 guests evacuated, concurrency 1/2/4/8");
  bench::print_row_header({"conc", "makespan_ms", "blk_p50_ms", "blk_p99_ms", "blk_max_ms",
                           "retries", "failed", "peak_gbps"});
  int rc = 0;
  for (std::uint32_t conc : {1u, 2u, 4u, 8u}) {
    Options sweep;
    sweep.conc = conc;
    const SweepRow row = run_drain(sweep, /*traced=*/false, nullptr);
    std::printf("%16u%16.2f%16.3f%16.3f%16.3f%16llu%16llu%16.1f\n", row.concurrency,
                sim::to_msec(row.report.makespan()), sim::to_msec(row.report.blackout_p50),
                sim::to_msec(row.report.blackout_p99),
                sim::to_msec(row.report.blackout_max),
                static_cast<unsigned long long>(row.report.retries),
                static_cast<unsigned long long>(row.report.failed), row.peak_gbps);
    if (row.failed_loudly()) rc = 1;
  }
  bench::print_registry_section("cluster.");
  return rc;
}
