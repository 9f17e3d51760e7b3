// migrrdma-sim: command-line scenario runner.
//
// Runs one configurable live migration of a perftest workload on the
// simulated cluster and prints the full report — the quickest way to
// explore the parameter space outside the fixed benchmark sweeps.
//
// Usage:
//   migrrdma_sim [--qps N] [--msg BYTES] [--depth N] [--opcode write|send]
//                [--no-presetup] [--migrate-receiver] [--loss P]
//                [--wbs-timeout-ms T] [--precopy-rounds N] [--seed S]
//                [--trace OUT.json] [--timeseries OUT.csv|OUT.json]
//                [--timeseries-interval-us N] [--record OUT.json] [--metrics]
//
// Examples:
//   migrrdma_sim --qps 256 --msg 4096
//   migrrdma_sim --qps 16 --msg 2097152 --depth 4 --migrate-receiver
//   migrrdma_sim --loss 1.0 --wbs-timeout-ms 3      # buggy-network path
//   migrrdma_sim --trace out.json --metrics         # Chrome trace + registry dump
//   migrrdma_sim --timeseries ts.csv --record cap.json   # metrics series + wire capture
//
// --trace writes a Chrome trace-event JSON covering the whole run (load it
// in about://tracing or https://ui.perfetto.dev); the same path doubles as
// the tracer's flush target, so an aborted migration still leaves a valid
// file. --timeseries samples the metrics registry on a sim-time period and
// writes a CSV (or JSON with a .json suffix). --record enables the wire
// flight recorder and writes its capture at exit; anomaly dumps (abort, NAK
// storm, stuck QPs) are counted in the capture. --metrics prints the
// process-wide metrics registry at exit. --slo arms the per-guest SLI
// pipeline, evaluates the given SLO spec (DESIGN.md §12 grammar) over the
// brownout windows, and writes the versioned slo_report artifact to
// --slo-out (default slo_report.json); --sli-csv dumps the raw window
// timeline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "apps/perftest.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "migr/migration.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sli.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rnic/world.hpp"

using namespace migr;

namespace {

struct Options {
  std::uint32_t qps = 16;
  std::uint32_t msg = 65536;
  std::uint32_t depth = 16;
  rnic::WrOpcode opcode = rnic::WrOpcode::rdma_write;
  bool presetup = true;
  bool migrate_receiver = false;
  double loss = 0.0;
  sim::DurationNs wbs_timeout = sim::sec(5);
  int precopy_rounds = 3;
  std::uint64_t seed = 42;
  std::string trace_path;       // empty = tracing off
  std::string timeseries_path;  // empty = sampling off
  sim::DurationNs timeseries_interval = sim::usec(100);
  std::string record_path;      // empty = flight recorder off
  bool metrics = false;
  std::string slo_spec;         // empty = SLO engine off
  std::string slo_out = "slo_report.json";
  std::string sli_csv;          // empty = no window-timeline CSV
  bool critical_path = false;   // blackout edge attribution (DESIGN.md §16)
  std::uint64_t trace_max_events = 0;  // 0 = tracer default capacity
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--qps N] [--msg BYTES] [--depth N] [--opcode write|send]\n"
               "          [--no-presetup] [--migrate-receiver] [--loss P]\n"
               "          [--wbs-timeout-ms T] [--precopy-rounds N] [--seed S]\n"
               "          [--trace OUT.json] [--timeseries OUT.csv|OUT.json]\n"
               "          [--timeseries-interval-us N] [--record OUT.json] [--metrics]\n"
               "          [--slo SPEC] [--slo-out OUT.json] [--sli-csv OUT.csv]\n"
               "          [--critical-path] [--trace-max-events N]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--qps") {
      o.qps = static_cast<std::uint32_t>(std::strtoul(need_value("--qps"), nullptr, 10));
    } else if (arg == "--msg") {
      o.msg = static_cast<std::uint32_t>(std::strtoul(need_value("--msg"), nullptr, 10));
    } else if (arg == "--depth") {
      o.depth = static_cast<std::uint32_t>(std::strtoul(need_value("--depth"), nullptr, 10));
    } else if (arg == "--opcode") {
      const std::string v = need_value("--opcode");
      if (v == "write") {
        o.opcode = rnic::WrOpcode::rdma_write;
      } else if (v == "send") {
        o.opcode = rnic::WrOpcode::send;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--no-presetup") {
      o.presetup = false;
    } else if (arg == "--migrate-receiver") {
      o.migrate_receiver = true;
    } else if (arg == "--loss") {
      o.loss = std::strtod(need_value("--loss"), nullptr);
    } else if (arg == "--wbs-timeout-ms") {
      o.wbs_timeout = sim::msec(std::strtod(need_value("--wbs-timeout-ms"), nullptr));
    } else if (arg == "--precopy-rounds") {
      o.precopy_rounds = std::atoi(need_value("--precopy-rounds"));
    } else if (arg == "--seed") {
      o.seed = std::strtoull(need_value("--seed"), nullptr, 10);
    } else if (arg == "--trace") {
      o.trace_path = need_value("--trace");
    } else if (arg == "--timeseries") {
      o.timeseries_path = need_value("--timeseries");
    } else if (arg == "--timeseries-interval-us") {
      o.timeseries_interval =
          sim::usec(std::strtod(need_value("--timeseries-interval-us"), nullptr));
    } else if (arg == "--record") {
      o.record_path = need_value("--record");
    } else if (arg == "--metrics") {
      o.metrics = true;
    } else if (arg == "--slo") {
      o.slo_spec = need_value("--slo");
    } else if (arg == "--slo-out") {
      o.slo_out = need_value("--slo-out");
    } else if (arg == "--sli-csv") {
      o.sli_csv = need_value("--sli-csv");
    } else if (arg == "--critical-path") {
      o.critical_path = true;
    } else if (arg == "--trace-max-events") {
      o.trace_max_events =
          std::strtoull(need_value("--trace-max-events"), nullptr, 10);
    } else {
      usage(argv[0]);
    }
  }
  if (o.qps == 0 || o.msg == 0 || o.depth == 0) usage(argv[0]);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  rnic::World world({}, opt.seed);
  common::Logger::instance().set_time_source(&world.loop());
  if (!opt.trace_path.empty()) {
    auto& tracer = obs::Tracer::global();
    tracer.set_clock(&world.loop());
    tracer.set_enabled(true);
    // Aborts and failures flush to this path, so even a run that dies
    // mid-migration leaves a loadable trace.
    tracer.set_flush_path(opt.trace_path);
    if (opt.trace_max_events > 0) {
      // Bounded-memory tracing: cap the ring and spill full batches to the
      // trace file instead of evicting.
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
  if (!opt.timeseries_path.empty()) {
    world.loop().schedule_every(opt.timeseries_interval,
                                [&] { sampler.sample(world.loop().now()); });
  }
  world.fabric().set_faults(net::Faults{.data_loss_prob = opt.loss});
  migrlib::GuestDirectory directory;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  for (net::HostId h = 1; h <= 3; ++h) {
    rts.push_back(std::make_unique<migrlib::MigrRdmaRuntime>(directory, world.add_device(h),
                                                             world.fabric()));
  }

  apps::PerftestConfig cfg;
  cfg.num_qps = opt.qps;
  cfg.msg_size = opt.msg;
  cfg.queue_depth = opt.depth;
  cfg.opcode = opt.opcode;
  apps::PerftestPeer sender(*rts[0], world.add_process("tx"), 100,
                            apps::PerftestPeer::Role::sender, cfg);
  apps::PerftestPeer receiver(*rts[2], world.add_process("rx"), 200,
                              apps::PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < opt.qps; ++i) {
    auto st = apps::PerftestPeer::connect_pair(sender, i, receiver, i);
    if (!st.is_ok()) {
      std::fprintf(stderr, "connect failed: %s\n", st.to_string().c_str());
      return 1;
    }
  }
  // SLI/SLO pipeline: arm the taps before traffic starts so the idle
  // baseline covers the warm-up, and attach the burn-rate engine.
  auto& hub = obs::SliHub::global();
  std::vector<obs::SloRule> slo_rules;
  std::unique_ptr<obs::SloEngine> slo_engine;
  if (!opt.slo_spec.empty() || !opt.sli_csv.empty()) {
    hub.set_enabled(true);
    if (!opt.slo_spec.empty()) {
      std::string err;
      if (!obs::parse_slo_spec(opt.slo_spec, &slo_rules, &err)) {
        std::fprintf(stderr, "bad --slo spec: %s\n", err.c_str());
        return 2;
      }
      slo_engine = std::make_unique<obs::SloEngine>(slo_rules);
      hub.set_slo_engine(slo_engine.get());
    }
    sender.enable_sli(hub);
    receiver.enable_sli(hub);
  }

  sender.start();
  receiver.start();
  world.loop().run_for(sim::msec(5));

  const double warm_gbps = static_cast<double>(sender.stats().completed_bytes) * 8.0 /
                           static_cast<double>(world.loop().now());
  std::printf("workload: %u QP(s), %u B %s, depth %u — warm throughput %.1f Gbps\n",
              opt.qps, opt.msg, rnic::is_two_sided(opt.opcode) ? "SEND" : "WRITE",
              opt.depth, warm_gbps);

  migrlib::MigrationOptions mopts;
  mopts.pre_setup = opt.presetup;
  mopts.wbs_timeout = opt.wbs_timeout;
  mopts.max_precopy_rounds = opt.precopy_rounds;
  mopts.critical_path = opt.critical_path;
  migrlib::MigrationController ctl(world.loop(), world.fabric(), directory, mopts);
  auto& dest = world.add_process("restored");
  migrlib::MigrationReport report;
  bool done = false;
  const migrlib::GuestId target = opt.migrate_receiver ? 200 : 100;
  migrlib::MigratableApp* app = opt.migrate_receiver
                                    ? static_cast<migrlib::MigratableApp*>(&receiver)
                                    : &sender;
  auto st = ctl.start(target, 2, dest, app, [&](const migrlib::MigrationReport& r) {
    report = r;
    done = true;
  });
  if (!st.is_ok()) {
    std::fprintf(stderr, "cannot start migration: %s\n", st.to_string().c_str());
    return 1;
  }
  // Write the periodic/series artifacts. Called on both the failure and the
  // success path: a blackout anatomy of a failed run is exactly when the
  // artifacts matter.
  auto write_text = [](const std::string& path, const std::string& body) -> bool {
    const common::Status st = common::write_file(path, body);
    if (!st.is_ok()) std::fprintf(stderr, "cannot write %s\n", st.to_string().c_str());
    return st.is_ok();
  };
  auto write_artifacts = [&]() -> bool {
    bool ok = true;
    if (hub.enabled()) {
      hub.flush(world.loop().now());
      if (!opt.slo_spec.empty()) {
        char scen[160];
        std::snprintf(scen, sizeof scen, "migrrdma_sim qps=%u loss=%.3f seed=%llu",
                      opt.qps, opt.loss, static_cast<unsigned long long>(opt.seed));
        const std::string body =
            obs::export_slo_json(hub, slo_engine.get(), scen);
        if (write_text(opt.slo_out, body)) {
          std::printf("slo report: %zu alert(s) over %zu guest(s), written to %s\n",
                      slo_engine ? slo_engine->alerts().size() : 0,
                      hub.guest_ids().size(), opt.slo_out.c_str());
        } else {
          ok = false;
        }
      }
      if (!opt.sli_csv.empty() && !write_text(opt.sli_csv, hub.export_csv())) ok = false;
    }
    if (!opt.timeseries_path.empty()) {
      if (auto wst = sampler.write(opt.timeseries_path); !wst.is_ok()) {
        std::fprintf(stderr, "cannot write timeseries: %s\n", wst.to_string().c_str());
        ok = false;
      } else {
        std::printf("timeseries: %zu sample(s) written to %s\n", sampler.rows(),
                    opt.timeseries_path.c_str());
      }
    }
    if (!opt.record_path.empty()) {
      auto& rec = obs::FlightRecorder::global();
      if (auto wst = rec.write_json(opt.record_path); !wst.is_ok()) {
        std::fprintf(stderr, "cannot write capture: %s\n", wst.to_string().c_str());
        ok = false;
      } else {
        std::printf("flight recorder: %llu packet(s) seen, %llu dump(s), capture at %s\n",
                    static_cast<unsigned long long>(rec.total_recorded()),
                    static_cast<unsigned long long>(rec.dumps_triggered()),
                    opt.record_path.c_str());
      }
    }
    return ok;
  };

  while (!done && world.loop().now() < sim::sec(120)) world.loop().run_for(sim::msec(1));
  if (!report.ok) {
    std::fprintf(stderr, "migration failed: %s\n", report.error.c_str());
    (void)write_artifacts();  // abort/fail already flushed the trace
    return 1;
  }
  world.loop().run_for(sim::msec(20));

  std::printf("\nmigration of the %s (%s RDMA pre-setup):\n",
              opt.migrate_receiver ? "receiver" : "sender",
              opt.presetup ? "with" : "WITHOUT");
  std::printf("  pre-copy rounds        %llu (%.2f MiB copied)\n",
              static_cast<unsigned long long>(report.precopy_rounds + 1),
              static_cast<double>(report.precopy_bytes) / (1 << 20));
  std::printf("  wait-before-stop       %.3f ms%s\n", sim::to_msec(report.wbs_elapsed),
              report.wbs_timed_out ? "  [TIMED OUT -> replay]" : "");
  std::printf("  blackout breakdown     DumpRDMA %.2f | DumpOthers %.2f | Transfer %.2f | "
              "RestoreRDMA %.2f | FullRestore %.2f ms\n",
              sim::to_msec(report.dump_rdma), sim::to_msec(report.dump_others),
              sim::to_msec(report.transfer), sim::to_msec(report.restore_rdma),
              sim::to_msec(report.full_restore));
  std::printf("  service blackout       %.2f ms\n", sim::to_msec(report.service_blackout()));
  std::printf("  comm blackout          %.2f ms\n", sim::to_msec(report.comm_blackout()));
  std::printf("  pre-setup moved        %.2f ms of RDMA restore into the brownout\n",
              sim::to_msec(report.presetup_restore_rdma));
  if (hub.enabled()) {
    // Re-query: recovery usually completes in the post-resume settle window,
    // after the report snapshot was taken.
    hub.flush(world.loop().now());
    const obs::BrownoutAttribution att = hub.attribution(target);
    if (att.valid) {
      char recovery[32];
      if (att.recovery_ns < 0) {
        std::snprintf(recovery, sizeof recovery, "pending");
      } else {
        std::snprintf(recovery, sizeof recovery, "%.2f ms",
                      sim::to_msec(att.recovery_ns));
      }
      std::printf("  brownout               %.1f KiB goodput lost, %zu precopy iter(s), "
                  "recovery %s\n",
                  att.goodput_loss_bytes / 1024.0, att.precopy_p99.size(), recovery);
    }
  }

  const auto& s = rnic::is_two_sided(opt.opcode) ? receiver.stats() : sender.stats();
  std::printf("\ncorrectness: order violations %llu, corruptions %llu, errors %llu\n",
              static_cast<unsigned long long>(s.order_violations),
              static_cast<unsigned long long>(s.content_corruptions),
              static_cast<unsigned long long>(s.errors));

  if (!opt.trace_path.empty()) {
    auto& tracer = obs::Tracer::global();
    if (auto wst = tracer.write_chrome_json(opt.trace_path); !wst.is_ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n", wst.to_string().c_str());
      return 1;
    }
    std::printf("\ntrace: %llu event(s) written to %s (%llu dropped by the ring)\n",
                static_cast<unsigned long long>(tracer.size()), opt.trace_path.c_str(),
                static_cast<unsigned long long>(tracer.dropped()));
    tracer.set_clock(nullptr);
  }
  if (!write_artifacts()) return 1;
  std::printf("\nblackout waterfall: %s\n", report.waterfall_json().c_str());
  if (report.critical_path.valid) {
    std::printf("critical path (dominant=%s): %s\n",
                obs::edge_class_name(report.critical_path.dominant()),
                common::to_json(report.critical_path).c_str());
  }
  if (opt.metrics) {
    std::printf("\nmetrics registry:\n");
    obs::Registry::global().print(stdout);
  }
  return (s.order_violations + s.content_corruptions + s.errors) == 0 ? 0 : 1;
}
