// Post-copy mode and adaptive pre-copy, exercised at the cluster level: the
// same write-heavy fleet is drained once per mode and the reports compared —
// post-copy must buy a shorter service blackout and pay for it with a
// demand-fault drain whose accounting balances exactly.
#include <gtest/gtest.h>

#include "cluster/drain.hpp"
#include "obs/sli.hpp"

namespace migr::cluster {
namespace {

using migrlib::MigrationMode;

TrafficProfile write_heavy_profile() {
  TrafficProfile p;
  p.send_interval = sim::usec(30);
  p.msg_bytes = 1024;
  p.extra_mem_bytes = 4 << 20;
  p.dirty_interval = sim::msec(1);
  return p;
}

TrafficProfile clean_profile() {
  TrafficProfile p;
  p.send_interval = sim::usec(30);
  p.msg_bytes = 1024;
  p.extra_mem_bytes = 1 << 20;
  p.dirty_interval = 0;  // never dirties its extra MR
  return p;
}

/// Drain host 1 of a small write-heavy fleet in the given mode, optionally
/// over a ctrl plane that drops `ctrl_loss` of its messages.
DrainReport drain_fleet(MigrationMode mode, bool sli_on = false, double ctrl_loss = 0.0) {
  ClusterConfig cfg;
  cfg.hosts = 4;
  cfg.seed = 7;
  ClusterModel model(cfg);
  if (sli_on) model.enable_sli(obs::SliHub::global());
  for (GuestId g = 0; g < 2; ++g) {
    EXPECT_TRUE(model.add_guest(1, 100 + g, write_heavy_profile()).is_ok());
    EXPECT_TRUE(model.add_guest(2 + g, 200 + g, write_heavy_profile()).is_ok());
    EXPECT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(5));
  if (ctrl_loss > 0) {
    net::Faults f;
    f.ctrl_loss_prob = ctrl_loss;
    model.fabric().set_faults(f);
  }

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 2;
  scfg.limits.max_concurrent_per_source = 2;
  scfg.limits.max_concurrent_per_dest = 2;
  scfg.migration.mode = mode;
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  DrainReport rep = drain.run(1);
  EXPECT_TRUE(rep.ok) << format_drain_report(rep);
  if (sli_on) {
    model.run_for(sim::msec(2));
    obs::SliHub::global().flush(model.loop().now());
  }
  return rep;
}

TEST(PostcopyTest, ShorterBlackoutThanPrecopyOnWriteHeavyFleet) {
  const DrainReport pre = drain_fleet(MigrationMode::precopy);
  const DrainReport post = drain_fleet(MigrationMode::postcopy);

  // The headline trade: stop-and-copy no longer ships the hot dirty set
  // inside the blackout, so every percentile must shrink.
  EXPECT_LT(post.blackout_p50, pre.blackout_p50);
  EXPECT_LT(post.blackout_max, pre.blackout_max);

  for (const MigrationOutcome& o : pre.outcomes) {
    EXPECT_FALSE(o.report.postcopy.enabled);
    EXPECT_EQ(o.report.mode, MigrationMode::precopy);
  }
  for (const MigrationOutcome& o : post.outcomes) {
    const migrlib::PostcopyStats& pc = o.report.postcopy;
    EXPECT_EQ(o.report.mode, MigrationMode::postcopy);
    EXPECT_EQ(o.report.stop_reason, "postcopy");
    ASSERT_TRUE(pc.enabled);
    EXPECT_GT(pc.missing_pages, 0u);
    // Every missing page is owned by exactly one fill path.
    EXPECT_EQ(pc.demand_faults + pc.prefetched_pages, pc.missing_pages);
    EXPECT_GT(pc.fetch_bytes, 0u);
    EXPECT_GT(pc.drain_ns, 0);
    if (pc.demand_faults > 0) {
      EXPECT_GT(pc.fault_p50_ns, 0);
      EXPECT_GE(pc.fault_max_ns, pc.fault_p99_ns);
    }
    // The waterfall still tiles the (shorter) blackout exactly.
    EXPECT_EQ(o.report.waterfall_total(), o.report.service_blackout());
    EXPECT_NE(o.report.waterfall_json().find("\"mode\":\"postcopy\""),
              std::string::npos);
  }
}

// Page requests and page replies cross the ctrl plane; the replies ride the
// migration's TransferMux, whose chunk deadline is the migration's
// transfer_timeout (1 s). A lost reply must cost one stall-watchdog period
// and a re-request, not a stuck mux that outlasts the watchdog's budget.
TEST(PostcopyTest, DrainSurvivesCtrlPlaneLoss) {
  const DrainReport rep = drain_fleet(MigrationMode::postcopy, /*sli_on=*/false,
                                      /*ctrl_loss=*/0.05);
  ASSERT_EQ(rep.outcomes.size(), 2u);
  std::uint64_t retries = 0;
  for (const MigrationOutcome& o : rep.outcomes) {
    EXPECT_TRUE(o.completed) << o.report.error;
    const migrlib::PostcopyStats& pc = o.report.postcopy;
    ASSERT_TRUE(pc.enabled);
    EXPECT_EQ(pc.demand_faults + pc.prefetched_pages, pc.missing_pages);
    EXPECT_GT(pc.drain_ns, 0);
    retries += pc.retries;
  }
  EXPECT_GT(retries, 0u) << "5% ctrl loss never stalled a page fetch";
}

TEST(PostcopyTest, SliTimelineGetsAPostcopyPhase) {
  auto& hub = obs::SliHub::global();
  hub.clear();
  hub.set_enabled(true);
  const DrainReport post = drain_fleet(MigrationMode::postcopy, /*sli_on=*/true);
  ASSERT_TRUE(post.ok);
  bool saw_postcopy = false;
  for (std::uint32_t id : hub.guest_ids()) {
    const obs::GuestSli* g = hub.find(id);
    if (g == nullptr) continue;
    for (const obs::SliWindow& w : g->windows()) {
      if (w.phase == obs::ServicePhase::postcopy) saw_postcopy = true;
    }
  }
  EXPECT_TRUE(saw_postcopy);
  hub.clear();
  hub.set_enabled(false);
}

TEST(PostcopyTest, SchedulerDirtyRatePolicyPicksModePerGuest) {
  ClusterConfig cfg;
  cfg.hosts = 4;
  cfg.seed = 7;
  ClusterModel model(cfg);
  EXPECT_TRUE(model.add_guest(1, 100, write_heavy_profile()).is_ok());
  EXPECT_TRUE(model.add_guest(1, 101, clean_profile()).is_ok());
  EXPECT_TRUE(model.add_guest(2, 200, write_heavy_profile()).is_ok());
  EXPECT_TRUE(model.add_guest(2, 201, clean_profile()).is_ok());
  EXPECT_TRUE(model.connect_guests(100, 200).is_ok());
  EXPECT_TRUE(model.connect_guests(101, 201).is_ok());
  model.run_for(sim::msec(5));

  // Threshold between the clean guest's 0 B/s and the hot guest's ~4 GiB/s.
  SchedulerConfig scfg;
  scfg.postcopy_dirty_bps = 1e9;
  MigrationScheduler sched(model, scfg);
  auto hot = sched.submit(MigrationRequest{100, 3, 0});
  auto cold = sched.submit(MigrationRequest{101, 3, 0});
  ASSERT_TRUE(sched.run_until_idle().is_ok());
  ASSERT_TRUE(sched.outcome(hot)->completed);
  ASSERT_TRUE(sched.outcome(cold)->completed);
  EXPECT_TRUE(sched.outcome(hot)->report.postcopy.enabled);
  EXPECT_FALSE(sched.outcome(cold)->report.postcopy.enabled);

  // An explicit per-request mode outranks the policy: force the clean guest
  // post-copy on the way back.
  MigrationRequest back{101, 1, 0};
  back.mode = MigrationMode::postcopy;
  auto forced = sched.submit(back);
  ASSERT_TRUE(sched.run_until_idle().is_ok());
  ASSERT_TRUE(sched.outcome(forced)->completed);
  EXPECT_TRUE(sched.outcome(forced)->report.postcopy.enabled);
}

TEST(PostcopyTest, AdaptivePrecopyThrottlesADivergingGuest) {
  ClusterConfig cfg;
  cfg.hosts = 4;
  cfg.seed = 7;
  ClusterModel model(cfg);
  EXPECT_TRUE(model.add_guest(1, 100, write_heavy_profile()).is_ok());
  EXPECT_TRUE(model.add_guest(2, 200, write_heavy_profile()).is_ok());
  EXPECT_TRUE(model.connect_guests(100, 200).is_ok());
  model.run_for(sim::msec(5));

  SchedulerConfig scfg;
  scfg.migration.adaptive_precopy = true;
  scfg.migration.max_precopy_rounds = 10;
  scfg.migration.dirty_page_threshold = 16;
  MigrationScheduler sched(model, scfg);
  auto id = sched.submit(MigrationRequest{100, 3, 0});
  ASSERT_TRUE(sched.run_until_idle().is_ok());
  const MigrationOutcome* out = sched.outcome(id);
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(out->completed) << out->error;
  const migrlib::MigrationReport& rep = out->report;

  // The 4 MiB MR is fully re-dirtied every millisecond — pre-copy cannot
  // converge. The predictor must have measured that, walked the
  // auto-converge ladder, and stopped instead of burning all 10 rounds.
  EXPECT_GT(rep.dirty_pages_per_sec, 0.0);
  EXPECT_EQ(rep.stop_reason, "diverging");
  EXPECT_GE(rep.autoconverge_steps, 1);
  EXPECT_GT(rep.throttle_factor, 0.0);
  EXPECT_LT(rep.precopy_rounds, 10u);
  // The throttle must be released once the migration is over.
  EXPECT_EQ(model.throttle_of(100), 0.0);
}

TEST(PostcopyTest, ThrottleSkipsRequestedFractionOfTicks) {
  ClusterConfig cfg;
  cfg.hosts = 2;
  cfg.seed = 7;
  ClusterModel model(cfg);
  TrafficProfile p = clean_profile();
  p.send_interval = sim::usec(100);
  EXPECT_TRUE(model.add_guest(1, 100, p).is_ok());
  EXPECT_TRUE(model.add_guest(2, 200, p).is_ok());
  EXPECT_TRUE(model.connect_guests(100, 200).is_ok());
  model.run_for(sim::msec(10));
  const std::uint64_t before = model.guest(100)->sent();
  model.set_throttle(100, 0.5);
  model.run_for(sim::msec(10));
  const std::uint64_t throttled = model.guest(100)->sent() - before;
  model.set_throttle(100, 0.0);
  model.run_for(sim::msec(10));
  const std::uint64_t full = model.guest(100)->sent() - before - throttled;
  // Token-bucket skip: the throttled window sends half of the full-rate
  // window (±1 tick of rounding).
  EXPECT_NEAR(static_cast<double>(throttled), static_cast<double>(full) / 2, 2.0);
}

}  // namespace
}  // namespace migr::cluster
