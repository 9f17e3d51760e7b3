// FT failover vs the Fig. 6 recovery strategies.
//
// Fig. 6 compared maintenance strategies (live migration vs Hadoop-native
// failover) by job completion time. This harness extends the comparison to
// unplanned node failure and measures the *service blackout* of three
// recovery paths on the same seeded 8-host scenario:
//
//   * migration  — planned evacuation with MigrRDMA live migration (the
//                  lower bound: the "failure" is known in advance).
//   * log-replay — Hadoop-native failover, modeled from measured pieces:
//                  heartbeat detection (measured) + a cold full-image
//                  resync over the same fabric (measured: the FT leg's
//                  full-sync wall time) + the log-replay recovery constant
//                  Fig. 6 charges mini-Hadoop (15 s). Clearly labeled as a
//                  model, not a run.
//   * FT         — continuous protection (micro-checkpoint epochs + output
//                  commit); kill the primary mid-traffic and measure the
//                  promotion blackout end to end.
//
// The FT leg asserts the output-commit invariant the way ft_test does: the
// traffic source's sequence counter lives in guest memory, so any
// uncommitted message that leaked before the kill reappears as a duplicate
// sequence number after promotion. A duplicate fails the bench.
//
// Artifacts:
//   --ft-out OUT.json     versioned ft_report of the FT leg (validate with
//                         tools/validate_artifacts.py --ft)
//   --bench-out OUT.json  ft_bench summary (epoch commit latency, output-
//                         commit tax, blackout per strategy)
//   --critical-path       attribute the failover blackout to edge classes;
//                         the ft_report gains a critical_path block
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "ft/ft.hpp"
#include "obs/histogram.hpp"

namespace migr::bench {
namespace {

using migrlib::MigratableApp;

constexpr GuestId kProtectedGuest = 100;
constexpr GuestId kPartnerGuest = 200;
constexpr net::HostId kPrimaryHost = 1;
constexpr net::HostId kStandbyHost = 2;
constexpr net::HostId kPartnerHost = 3;
constexpr std::uint32_t kHosts = 8;

struct Options {
  std::uint64_t seed = 42;
  double loss = 0.0;
  sim::DurationNs kill_after = sim::msec(25);
  std::string ft_out;
  std::string bench_out;
  bool critical_path = false;
};

// Sequence-numbered traffic whose counter lives in guest memory: it
// checkpoints with the epochs and rolls back on promotion, so a leaked
// uncommitted message surfaces as a duplicate at the receiver (see
// tests/ft_test.cpp for the full argument).
class SeqTraffic : public MigratableApp {
 public:
  SeqTraffic(apps::MsgNode& node, GuestId peer, sim::DurationNs interval)
      : node_(&node), peer_(peer), interval_(interval) {}

  void start(proc::SimProcess& p) {
    proc_ = &p;
    seq_addr_ = p.mem().mmap(proc::kPageSize, "seq_counter").value();
    write_seq(0);
    spawn();
  }

  void on_migrated(proc::SimProcess& new_proc) override {
    node_->on_migrated(new_proc);
    proc_ = &new_proc;
    task_.cancel();
    spawn();
  }

 private:
  void spawn() {
    task_ = proc_->spawn_poller(interval_, [this] { tick(); });
  }

  void tick() {
    std::vector<std::uint8_t> raw(8);
    if (!proc_->mem().read(seq_addr_, raw).is_ok()) return;
    common::ByteReader r{raw};
    const std::uint64_t seq = r.u64().value();
    common::ByteWriter w;
    w.u64(seq);
    if (node_->send(peer_, w.data()).is_ok()) write_seq(seq + 1);
  }

  void write_seq(std::uint64_t v) {
    common::ByteWriter w;
    w.u64(v);
    (void)proc_->mem().write(seq_addr_, w.data());
  }

  apps::MsgNode* node_;
  GuestId peer_;
  sim::DurationNs interval_;
  proc::SimProcess* proc_ = nullptr;
  proc::VirtAddr seq_addr_ = 0;
  sim::EventHandle task_;
};

// The seeded 8-host scenario both legs share: the guest under test on host
// 1 streams sequence numbers to a partner on host 3 (host 2 is the standby
// / migration target), and three background pairs on hosts 4..8 keep the
// fabric busy so neither leg runs on an idle network.
class Scenario {
 public:
  Scenario(std::uint64_t seed, double loss) : world_({}, seed) {
    if (loss > 0) {
      net::Faults f;
      f.data_loss_prob = loss;
      world_.fabric().set_faults(f);
    }
    for (net::HostId h = 1; h <= kHosts; ++h) {
      devices_[h - 1] = &world_.add_device(h);
      runtimes_[h - 1] =
          std::make_unique<MigrRdmaRuntime>(directory_, *devices_[h - 1], world_.fabric());
    }
    primary_proc_ = &world_.add_process("primary");
    partner_proc_ = &world_.add_process("partner");
    backup_proc_ = &world_.add_process("backup");
    a_ = std::make_unique<apps::MsgNode>(rt(kPrimaryHost), *primary_proc_, kProtectedGuest);
    b_ = std::make_unique<apps::MsgNode>(rt(kPartnerHost), *partner_proc_, kPartnerGuest);
    if (!apps::MsgNode::connect(*a_, *b_).is_ok()) std::exit(1);
    a_->start();
    b_->start();
    b_->set_handler([this](GuestId, const common::Bytes& payload) {
      common::ByteReader r{payload};
      auto s = r.u64();
      if (s.is_ok()) received_.push_back(s.value());
    });
    traffic_ = std::make_unique<SeqTraffic>(*a_, kPartnerGuest, sim::usec(200));
    traffic_->start(*primary_proc_);

    // Background load: (4,5), (6,7), (8,4).
    const net::HostId pairs[][2] = {{4, 5}, {6, 7}, {8, 4}};
    GuestId next_id = 300;
    for (const auto& p : pairs) {
      auto& lp = world_.add_process("bg");
      auto& rp = world_.add_process("bg");
      auto l = std::make_unique<apps::MsgNode>(rt(p[0]), lp, next_id++);
      auto r = std::make_unique<apps::MsgNode>(rt(p[1]), rp, next_id++);
      if (!apps::MsgNode::connect(*l, *r).is_ok()) std::exit(1);
      l->start();
      r->start();
      apps::MsgNode* lraw = l.get();
      const GuestId rid = r->id();
      bg_tasks_.push_back(lp.spawn_poller(sim::usec(150), [lraw, rid] {
        common::Bytes payload(64, 0xb6);
        (void)lraw->send(rid, payload);
      }));
      bg_.push_back(std::move(l));
      bg_.push_back(std::move(r));
    }
  }

  MigrRdmaRuntime& rt(net::HostId h) { return *runtimes_[h - 1]; }
  void run_for(sim::DurationNs d) { world_.loop().run_until(world_.loop().now() + d); }

  rnic::World world_;
  GuestDirectory directory_;
  rnic::Device* devices_[kHosts] = {};
  std::unique_ptr<MigrRdmaRuntime> runtimes_[kHosts];
  proc::SimProcess* primary_proc_ = nullptr;
  proc::SimProcess* partner_proc_ = nullptr;
  proc::SimProcess* backup_proc_ = nullptr;
  std::unique_ptr<apps::MsgNode> a_;
  std::unique_ptr<apps::MsgNode> b_;
  std::unique_ptr<SeqTraffic> traffic_;
  std::vector<std::unique_ptr<apps::MsgNode>> bg_;
  std::vector<sim::EventHandle> bg_tasks_;
  std::vector<std::uint64_t> received_;
};

ft::FtOptions ft_options() {
  ft::FtOptions o;
  o.criu_costs.freeze = sim::usec(50);
  o.criu_costs.dump_base = sim::usec(300);
  o.criu_costs.final_restore_base = sim::msec(2);
  o.epoch_interval = sim::msec(1);
  o.heartbeat_interval = sim::msec(1);
  return o;
}

struct FtLeg {
  bool ok = false;
  std::string error;
  ft::FtReport report;
  std::string report_json;
  sim::DurationNs full_sync_wall = 0;  // protect -> full sync committed
  std::int64_t epoch_commit_p50 = 0;
  std::int64_t epoch_commit_p99 = 0;
  std::uint64_t duplicate_seqs = 0;  // output-commit violations at the receiver
  std::uint64_t lost_seqs = 0;       // wire-level in-flight loss at the kill
};

FtLeg run_ft_leg(const Options& opt) {
  FtLeg leg;
  Scenario s(opt.seed, opt.loss);
  ft::FtOptions fo = ft_options();
  fo.critical_path = opt.critical_path;
  ft::FtController ctrl(s.world_.loop(), s.world_.fabric(), s.directory_, fo);
  bool ready = false, ready_ok = false, done = false;
  auto st = ctrl.protect(
      kProtectedGuest, kStandbyHost, *s.backup_proc_, s.traffic_.get(), s.a_.get(),
      [&](const common::Status& rst) {
        ready = true;
        ready_ok = rst.is_ok();
      },
      [&](const ft::FtReport& r) {
        done = true;
        leg.report = r;
      });
  if (!st.is_ok()) {
    leg.error = st.to_string();
    return leg;
  }
  const sim::TimeNs protect_deadline = s.world_.loop().now() + sim::sec(2);
  while (!ready && s.world_.loop().now() < protect_deadline) s.run_for(sim::usec(100));
  if (!ready_ok) {
    leg.error = "protection never became live";
    return leg;
  }
  s.run_for(opt.kill_after);
  ctrl.kill_primary();
  const sim::TimeNs done_deadline = s.world_.loop().now() + sim::sec(2);
  while (!done && s.world_.loop().now() < done_deadline) s.run_for(sim::usec(100));
  if (!done) {
    leg.error = "failover never completed";
    return leg;
  }
  s.run_for(sim::msec(30));  // post-promotion delivery window

  leg.report_json = leg.report.json();
  leg.full_sync_wall = leg.report.protected_at - leg.report.protect_start;
  obs::Histogram commit_lat;
  for (const auto& e : leg.report.epochs) {
    if (e.epoch >= 1 && e.committed_at != 0) commit_lat.record(e.commit_latency());
  }
  leg.epoch_commit_p50 = commit_lat.percentile(50);
  leg.epoch_commit_p99 = commit_lat.percentile(99);

  for (std::size_t i = 1; i < s.received_.size(); ++i) {
    if (s.received_[i] <= s.received_[i - 1]) leg.duplicate_seqs++;
    if (s.received_[i] > s.received_[i - 1] + 1) {
      leg.lost_seqs += s.received_[i] - s.received_[i - 1] - 1;
    }
  }
  if (!s.received_.empty()) leg.lost_seqs += s.received_.front();
  leg.ok = leg.report.ok && leg.report.failed_over && !s.received_.empty();
  if (!leg.ok && leg.error.empty()) leg.error = leg.report.error;
  return leg;
}

MigrationReport run_migration_leg(const Options& opt) {
  Scenario s(opt.seed, opt.loss);
  s.run_for(opt.kill_after);
  // Same CRIU cost model as the FT leg, so the comparison isolates the
  // recovery strategy rather than the checkpoint engine configuration.
  MigrationOptions mopts;
  mopts.criu_costs = ft_options().criu_costs;
  MigrationController ctl(s.world_.loop(), s.world_.fabric(), s.directory_, mopts);
  MigrationReport out;
  bool done = false;
  auto st = ctl.start(kProtectedGuest, kStandbyHost, *s.backup_proc_, s.traffic_.get(),
                      [&](const MigrationReport& r) {
                        out = r;
                        done = true;
                      });
  if (!st.is_ok()) {
    out.ok = false;
    out.error = st.to_string();
    return out;
  }
  const sim::TimeNs deadline = s.world_.loop().now() + sim::sec(30);
  while (!done && s.world_.loop().now() < deadline) s.run_for(sim::msec(1));
  return out;
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
    if (arg == "--seed") {
      o.seed = std::strtoull(need_value("--seed"), nullptr, 10);
    } else if (arg == "--loss") {
      o.loss = std::strtod(need_value("--loss"), nullptr);
    } else if (arg == "--kill-after-ms") {
      o.kill_after = sim::msec(std::strtol(need_value("--kill-after-ms"), nullptr, 10));
    } else if (arg == "--ft-out") {
      o.ft_out = need_value("--ft-out");
    } else if (arg == "--bench-out") {
      o.bench_out = need_value("--bench-out");
    } else if (arg == "--critical-path") {
      o.critical_path = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed S] [--loss P] [--kill-after-ms N]\n"
                   "          [--ft-out OUT.json] [--bench-out OUT.json] [--critical-path]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return o;
}

int run(const Options& opt) {
  print_header("FT failover vs migration vs log-replay failover — 8 hosts, seed " +
               std::to_string(opt.seed) +
               (opt.loss > 0 ? ", loss " + std::to_string(opt.loss) : std::string()));

  const FtLeg ft = run_ft_leg(opt);
  if (!ft.ok) {
    std::fprintf(stderr, "FT leg failed: %s\n", ft.error.c_str());
    return 1;
  }
  const MigrationReport mig = run_migration_leg(opt);
  if (!mig.ok) {
    std::fprintf(stderr, "migration leg failed: %s\n", mig.error.c_str());
    return 1;
  }

  // Log-replay baseline, modeled from measured pieces of this scenario:
  // the same heartbeat detection the FT watchdog needed, a cold full-image
  // resync (the FT leg's measured full-sync wall time on this fabric), and
  // Fig. 6's mini-Hadoop log-replay recovery constant.
  const sim::DurationNs detect = ft.report.detected_at - ft.report.killed_at;
  const sim::DurationNs log_replay_recovery = sim::sec(15);
  const sim::DurationNs log_replay = detect + ft.full_sync_wall + log_replay_recovery;
  const sim::DurationNs mig_blackout = mig.resume_at - mig.freeze_at;
  const sim::DurationNs ft_blackout = ft.report.failover_blackout();

  print_row_header({"strategy", "blackout (ms)", "planned", "measured"});
  std::printf("%16s%16.3f%16s%16s\n", "migration", sim::to_msec(mig_blackout), "yes", "yes");
  std::printf("%16s%16.3f%16s%16s   (detect %.3f + resync %.3f + replay %.0f ms)\n",
              "log-replay", sim::to_msec(log_replay), "no", "modeled",
              sim::to_msec(detect), sim::to_msec(ft.full_sync_wall),
              sim::to_msec(log_replay_recovery));
  std::printf("%16s%16.3f%16s%16s\n", "FT", sim::to_msec(ft_blackout), "no", "yes");

  std::printf("\nFT protection steady state:\n");
  std::printf("  epochs committed      %" PRIu64 " (full sync %" PRIu64
              " KiB, incremental total %" PRIu64 " KiB)\n",
              ft.report.epochs_committed, ft.report.full_sync_bytes >> 10,
              ft.report.epoch_bytes_total >> 10);
  std::printf("  epoch commit latency  p50 %.3f ms  p99 %.3f ms\n",
              sim::to_msec(ft.epoch_commit_p50), sim::to_msec(ft.epoch_commit_p99));
  std::printf("  output-commit tax     release delay p50 %.3f ms  p99 %.3f ms  (%" PRIu64
              " msgs released, %" PRIu64 " dropped at failover)\n",
              sim::to_msec(ft.report.release_delay_p50),
              sim::to_msec(ft.report.release_delay_p99), ft.report.msgs_released,
              ft.report.msgs_dropped);
  std::printf("\nFT failover waterfall (promoted from epoch %" PRIu64 "):\n",
              ft.report.promoted_epoch);
  for (const auto& s : ft.report.waterfall) {
    std::printf("  %-10s %10.3f ms\n", s.name.c_str(), sim::to_msec(s.dur));
  }
  std::printf("\nclient-visible stream: %" PRIu64 " duplicate seq(s), %" PRIu64
              " lost in flight at the kill\n",
              ft.duplicate_seqs, ft.lost_seqs);

  int rc = 0;
  if (ft.duplicate_seqs != 0) {
    std::fprintf(stderr, "FAIL: output-commit invariant violated "
                         "(%" PRIu64 " duplicate sequence numbers)\n",
                 ft.duplicate_seqs);
    rc = 1;
  }
  if (ft_blackout >= log_replay) {
    std::fprintf(stderr, "FAIL: FT blackout %.3f ms not below log-replay %.3f ms\n",
                 sim::to_msec(ft_blackout), sim::to_msec(log_replay));
    rc = 1;
  }

  if (!opt.ft_out.empty()) {
    if (auto st = common::write_file(opt.ft_out, ft.report_json); !st.is_ok()) {
      std::fprintf(stderr, "cannot write ft report: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("ft report: written to %s\n", opt.ft_out.c_str());
  }
  if (!opt.bench_out.empty()) {
    std::string scenario = "bench_ft_failover hosts=" + std::to_string(kHosts) +
                           " seed=" + std::to_string(opt.seed) + " loss=";
    common::Json(scenario).fixed(opt.loss, 3);  // printf's %.3f
    std::string body;
    common::Json j(body);
    j.obj().key("kind").val("ft_bench").key("version").val(1).key("scenario").val(scenario);
    j.key("epochs_committed").val(ft.report.epochs_committed);
    j.key("epoch_commit_p50_ns").val(ft.epoch_commit_p50);
    j.key("epoch_commit_p99_ns").val(ft.epoch_commit_p99);
    j.key("release_delay_p50_ns").val(ft.report.release_delay_p50);
    j.key("release_delay_p99_ns").val(ft.report.release_delay_p99);
    j.key("msgs_dropped").val(ft.report.msgs_dropped).key("duplicate_seqs").val(ft.duplicate_seqs);
    j.key("ft_blackout_ns").val(ft_blackout).key("migration_blackout_ns").val(mig_blackout);
    j.key("log_replay_blackout_ns").val(log_replay).end();
    body += '\n';
    if (auto st = common::write_file(opt.bench_out, body); !st.is_ok()) {
      std::fprintf(stderr, "cannot write bench summary: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("bench summary: written to %s\n", opt.bench_out.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace migr::bench

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  return migr::bench::run(migr::bench::parse(argc, argv));
}
