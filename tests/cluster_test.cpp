// Fleet orchestration: cluster model, migration scheduler, drain workflows.
//
//  * ClusterScheduler: admission limits under a request burst, abort ->
//    backoff-retry -> terminal failure after budget exhaustion, no two
//    concurrent migrations sharing a guest (same guest twice, and partnered
//    guests), rolling-rebalance planning;
//  * ClusterPlacement: the least-loaded rule's tie-breaks;
//  * ClusterDrain: zero-guest drain completes immediately, the acceptance
//    drain (8 hosts, concurrency 4) is deterministic down to the rendered
//    report, leaves no stuck QPs, and beats concurrency 1 on makespan;
//  * ClusterDrainWire: the canonical 8-guest drain wastes under 1% of the
//    packets it receives (no post-migration RNR retransmit storm);
//  * ClusterDrainLossy: a drain survives a seeded lossy fabric with a
//    mid-drain source partition — aborted attempts are retried to
//    completion.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/drain.hpp"
#include "fault/fault.hpp"
#include "obs/flight_recorder.hpp"

namespace migr::cluster {
namespace {

// Guests get real work: extra registered memory plus page churn, so
// migrations occupy sim time and concurrency is observable.
TrafficProfile busy_profile() {
  TrafficProfile p;
  p.send_interval = sim::usec(50);
  p.msg_bytes = 1024;
  p.extra_mem_bytes = 1 << 20;
  p.dirty_interval = sim::msec(1);
  return p;
}

/// Track the high-water mark of concurrently running migrations.
sim::EventHandle probe_max_running(ClusterModel& model, MigrationScheduler& sched,
                                   std::size_t& max_running) {
  return model.loop().schedule_every(sim::usec(20), [&] {
    max_running = std::max(max_running, sched.running());
  });
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(ClusterSchedulerTest, AdmissionLimitHonoredUnderBurst) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  ClusterModel model(cfg);
  for (GuestId g = 100; g < 106; ++g) {
    ASSERT_TRUE(model.add_guest(1 + (g - 100) % 2, g, busy_profile()).is_ok());
  }

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 2;
  scfg.limits.max_concurrent_per_source = 2;
  scfg.limits.max_concurrent_per_dest = 2;
  MigrationScheduler sched(model, scfg);

  std::size_t max_running = 0;
  auto probe = probe_max_running(model, sched, max_running);
  for (GuestId g = 100; g < 106; ++g) sched.submit({g, 0, 0});
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  probe.cancel();

  EXPECT_EQ(max_running, 2u);  // cap respected AND reached by the burst
  for (const auto& [id, out] : sched.outcomes()) {
    EXPECT_TRUE(out.completed) << "guest " << out.guest << ": " << out.error;
    EXPECT_NE(out.dest, 0u);
    // Satellite fix: reports carry sim-time brackets, no manual bracketing.
    EXPECT_GT(out.report.end, out.report.start);
    EXPECT_EQ(out.report.duration(), out.report.end - out.report.start);
  }
}

TEST(ClusterSchedulerTest, PerSourceLimitSerializesOneHostsMigrations) {
  ClusterConfig cfg;
  cfg.hosts = 6;
  ClusterModel model(cfg);
  for (GuestId g = 200; g < 204; ++g) {
    ASSERT_TRUE(model.add_guest(1, g, busy_profile()).is_ok());
  }

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 8;
  scfg.limits.max_concurrent_per_source = 1;
  MigrationScheduler sched(model, scfg);

  std::size_t max_running = 0;
  auto probe = probe_max_running(model, sched, max_running);
  for (GuestId g = 200; g < 204; ++g) sched.submit({g, 0, 0});
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  probe.cancel();
  EXPECT_EQ(max_running, 1u);
}

TEST(ClusterSchedulerTest, AbortedMigrationRetriedWithBackoffThenFailed) {
  ClusterConfig cfg;
  cfg.hosts = 3;
  ClusterModel model(cfg);
  ASSERT_TRUE(model.add_guest(1, 10).is_ok());  // idle guest: fast attempts

  SchedulerConfig scfg;
  scfg.migration.transfer_timeout = sim::msec(5);
  scfg.migration.max_transfer_retries = 1;
  scfg.max_retries = 2;
  scfg.retry_backoff = sim::msec(2);
  MigrationScheduler sched(model, scfg);

  // The pinned destination never answers: every attempt aborts.
  model.fabric().set_partitioned(3, true);

  MigrationOutcome final_out;
  bool terminal = false;
  sched.submit({10, 3, 0}, [&](const MigrationOutcome& out) {
    final_out = out;
    terminal = true;
  });
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  ASSERT_TRUE(terminal);

  EXPECT_TRUE(final_out.failed);
  EXPECT_FALSE(final_out.completed);
  EXPECT_EQ(final_out.attempts, 3);  // 1 + max_retries re-submissions
  EXPECT_TRUE(final_out.report.aborted);
  EXPECT_TRUE(final_out.report.source_resumed);
  // Each attempt pays >= 2 transfer-attempt deadlines, plus the scheduler's
  // doubling backoff (2 ms + 4 ms) between attempts.
  EXPECT_GE(final_out.finished_at - final_out.started_at,
            3 * 2 * sim::msec(5) + sim::msec(2) + sim::msec(4));
  // Rollback held: the guest still lives on its source, nothing stuck.
  EXPECT_EQ(model.host_of(10), 1u);
  EXPECT_EQ(model.audit_stuck_qps(sim::msec(1)), 0u);
}

TEST(ClusterSchedulerTest, ConcurrentMigrationsNeverShareGuest) {
  ClusterConfig cfg;
  cfg.hosts = 4;
  ClusterModel model(cfg);
  ASSERT_TRUE(model.add_guest(1, 10, busy_profile()).is_ok());

  MigrationScheduler sched(model, {});
  std::size_t max_running = 0;
  auto probe = probe_max_running(model, sched, max_running);
  const RequestId first = sched.submit({10, 2, 0});
  const RequestId second = sched.submit({10, 3, 0});
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  probe.cancel();

  EXPECT_EQ(max_running, 1u);  // the second move waited for the first
  EXPECT_TRUE(sched.outcome(first)->completed);
  EXPECT_TRUE(sched.outcome(second)->completed);
  EXPECT_EQ(model.host_of(10), 3u);  // moves applied in submission order
}

TEST(ClusterSchedulerTest, PartneredGuestsNeverMigrateConcurrently) {
  ClusterConfig cfg;
  cfg.hosts = 6;
  ClusterModel model(cfg);
  ASSERT_TRUE(model.add_guest(1, 10, busy_profile()).is_ok());
  ASSERT_TRUE(model.add_guest(2, 20, busy_profile()).is_ok());
  ASSERT_TRUE(model.connect_guests(10, 20).is_ok());
  model.run_for(sim::msec(2));  // traffic flowing

  MigrationScheduler sched(model, {});
  std::size_t max_running = 0;
  auto probe = probe_max_running(model, sched, max_running);
  sched.submit({10, 3, 0});
  sched.submit({20, 4, 0});
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  probe.cancel();

  EXPECT_EQ(max_running, 1u);  // partner conflict serialized them
  for (const auto& [id, out] : sched.outcomes()) {
    EXPECT_TRUE(out.completed) << out.error;
  }
  EXPECT_EQ(model.host_of(10), 3u);
  EXPECT_EQ(model.host_of(20), 4u);
  EXPECT_EQ(model.audit_stuck_qps(sim::msec(1)), 0u);
}

TEST(ClusterSchedulerTest, RebalancePlanLevelsGuestCounts) {
  ClusterConfig cfg;
  cfg.hosts = 4;
  ClusterModel model(cfg);
  for (GuestId g = 300; g < 304; ++g) ASSERT_TRUE(model.add_guest(1, g).is_ok());

  MigrationScheduler sched(model, {});
  const auto plan = sched.plan_rebalance(10);
  ASSERT_EQ(plan.size(), 3u);  // 4/0/0/0 -> 1/1/1/1

  sched.submit_rebalance(10);
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  for (net::HostId h = 1; h <= 4; ++h) EXPECT_EQ(model.guest_count(h), 1u) << "host " << h;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(ClusterPlacementTest, LeastLoadedOrdersByGuestsThenTrafficThenHostId) {
  ClusterConfig cfg;
  cfg.hosts = 4;
  ClusterModel model(cfg);
  TrafficProfile chatty;
  chatty.send_interval = sim::usec(50);
  // Host 1: two idle guests. Host 2: one guest offering traffic. Hosts 3
  // and 4: one idle guest each.
  ASSERT_TRUE(model.add_guest(1, 10).is_ok());
  ASSERT_TRUE(model.add_guest(1, 11).is_ok());
  ASSERT_TRUE(model.add_guest(2, 20, chatty).is_ok());
  ASSERT_TRUE(model.add_guest(3, 30).is_ok());
  ASSERT_TRUE(model.add_guest(4, 40).is_ok());

  EXPECT_EQ(model.least_loaded({}).code(), common::Errc::not_found);
  EXPECT_EQ(model.least_loaded({1, 2, 3, 4}).value(), 3u);
  EXPECT_EQ(model.least_loaded({4, 3}).value(), 3u) << "host id breaks the tie, not order";
  EXPECT_EQ(model.least_loaded({2, 4}).value(), 4u) << "lower traffic beats lower id";
  EXPECT_EQ(model.least_loaded({1, 2}).value(), 2u) << "fewer guests beats lower traffic";
  EXPECT_EQ(model.least_loaded({1}).value(), 1u);
}

// ---------------------------------------------------------------------------
// Drain workflows
// ---------------------------------------------------------------------------

TEST(ClusterDrainTest, EmptyHostDrainCompletesImmediately) {
  ClusterConfig cfg;
  cfg.hosts = 3;
  ClusterModel model(cfg);
  ASSERT_TRUE(model.add_guest(2, 50).is_ok());  // resident elsewhere

  MigrationScheduler sched(model, {});
  DrainWorkflow drain(model, sched);
  bool done = false;
  DrainReport rep;
  const sim::TimeNs before = model.loop().now();
  ASSERT_TRUE(drain.start(1, [&](const DrainReport& r) {
                     rep = r;
                     done = true;
                   })
                  .is_ok());
  // Terminal synchronously: no loop turn needed.
  ASSERT_TRUE(done);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.migrations, 0u);
  EXPECT_EQ(rep.makespan(), 0);
  EXPECT_EQ(model.loop().now(), before);
  EXPECT_TRUE(model.draining(1));
  EXPECT_EQ(model.host_of(50), 2u);  // bystander untouched
}

// The acceptance scenario: an 8-host fleet, six busy guests on host 1 with
// partners spread over hosts 2..7.
struct DrainRun {
  std::string rendered;
  sim::DurationNs makespan = 0;
  std::size_t stuck_qps = 0;
  bool all_completed = false;
  std::uint64_t retries = 0;
};

DrainRun run_acceptance_drain(std::uint32_t concurrency, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = seed;
  ClusterModel model(cfg);
  for (GuestId g = 0; g < 6; ++g) {
    EXPECT_TRUE(model.add_guest(1, 100 + g, busy_profile()).is_ok());
    EXPECT_TRUE(model.add_guest(2 + g, 200 + g, busy_profile()).is_ok());
    EXPECT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(5));  // steady-state traffic before the drain

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = concurrency;
  scfg.limits.max_concurrent_per_source = concurrency;
  scfg.limits.max_concurrent_per_dest = concurrency;
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  const DrainReport rep = drain.run(1);

  DrainRun out;
  out.rendered = format_drain_report(rep);
  out.makespan = rep.makespan();
  out.stuck_qps = model.audit_stuck_qps(sim::msec(10));
  out.all_completed = rep.ok && rep.completed == rep.migrations;
  out.retries = rep.retries;
  return out;
}

TEST(ClusterDrainTest, EightHostDrainIsDeterministicAndScalesWithConcurrency) {
  const DrainRun c4a = run_acceptance_drain(4, 7);
  const DrainRun c4b = run_acceptance_drain(4, 7);
  // Byte-identical fleet reports for identical (plan, seed).
  EXPECT_EQ(c4a.rendered, c4b.rendered);

  // Every migration completed (or was abort-retried to completion)...
  EXPECT_TRUE(c4a.all_completed) << c4a.rendered;
  // ...with no QP left stuck anywhere in the fleet.
  EXPECT_EQ(c4a.stuck_qps, 0u);

  const DrainRun c1 = run_acceptance_drain(1, 7);
  EXPECT_TRUE(c1.all_completed) << c1.rendered;
  EXPECT_LT(c4a.makespan, c1.makespan);  // strictly better at concurrency 4
}

// The canonical drain (bench_cluster_drain's default, the benchmark's
// drain8): eight guests on host 1 sending 2 KiB every 20 us to partners on
// hosts 2..8. Partners re-post their RECVs on the replacement QPs when they
// switch but hold their sends until the migrated guest resumes, so no
// message meets an empty RQ: no RNR, and no go-back-N replays dropped out
// of sequence behind one.
TEST(ClusterDrainWireTest, CleanDrainWastesUnderOnePercentOfReceivedPackets) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = 42;
  ClusterModel model(cfg);
  TrafficProfile profile;
  profile.send_interval = sim::usec(20);
  profile.msg_bytes = 2048;
  profile.extra_mem_bytes = 2 << 20;
  profile.dirty_interval = sim::msec(1);
  for (GuestId g = 0; g < 8; ++g) {
    ASSERT_TRUE(model.add_guest(1, 100 + g, profile).is_ok());
    ASSERT_TRUE(model.add_guest(2 + g % 7, 200 + g, profile).is_ok());
    ASSERT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(5));

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 4;
  scfg.limits.max_concurrent_per_source = 4;
  scfg.limits.max_concurrent_per_dest = 4;
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  const DrainReport rep = drain.run(1);
  ASSERT_TRUE(rep.ok) << format_drain_report(rep);
  EXPECT_EQ(model.audit_stuck_qps(sim::msec(10)), 0u);

  const rnic::PortCounters& w = rep.wire;
  ASSERT_GT(w.rx_packets, 100'000u);
  EXPECT_EQ(w.rx_rnr_drop, 0u);
  EXPECT_EQ(w.rnr_waits, 0u);
  EXPECT_LT(w.out_of_sequence * 100, w.rx_packets) << format_drain_report(rep);
  EXPECT_LT(w.tx_retransmit_packets * 100, w.tx_packets);
  // The request-packet split never claims more packets than arrived.
  EXPECT_LE(w.rx_in_order + w.rx_duplicate + w.out_of_sequence + w.rx_rnr_drop,
            w.rx_packets);
}

TEST(ClusterDrainLossyTest, DrainSurvivesLossAndMidDrainPartition) {
  ClusterConfig cfg;
  cfg.hosts = 6;
  cfg.seed = 11;
  ClusterModel model(cfg);
  for (GuestId g = 0; g < 3; ++g) {
    ASSERT_TRUE(model.add_guest(1, 100 + g, busy_profile()).is_ok());
    ASSERT_TRUE(model.add_guest(2 + g, 200 + g, busy_profile()).is_ok());
    ASSERT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(2));

  // Lossy data plane for the whole run + the drained host cut off for a
  // window mid-drain: in-flight transfers time out, migrations abort and
  // roll back, and the scheduler's backoff retries land after the heal.
  fault::ScenarioRunner scenario(model.loop(), model.fabric());
  fault::FaultPlan plan;
  plan.baseline(0.02).partition(model.loop().now() + sim::msec(1), sim::msec(12), 1);
  scenario.run(plan);

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 2;
  scfg.limits.max_concurrent_per_source = 2;
  // No controller-level transfer retries: a timed-out transfer aborts the
  // migration immediately, putting recovery entirely in the scheduler's
  // backoff-retry path (the subject under test).
  scfg.migration.transfer_timeout = sim::msec(2);
  scfg.migration.max_transfer_retries = 0;
  scfg.migration.wbs_timeout = sim::msec(50);
  scfg.max_retries = 5;
  scfg.retry_backoff = sim::msec(4);
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  const DrainReport rep = drain.run(1);

  EXPECT_TRUE(rep.ok) << format_drain_report(rep);
  EXPECT_EQ(rep.completed, rep.migrations);
  // The partition window forced at least one abort-and-retry.
  EXPECT_GE(rep.retries, 1u);
  EXPECT_EQ(model.audit_stuck_qps(sim::msec(50)), 0u);
  for (GuestId g = 0; g < 3; ++g) EXPECT_NE(model.host_of(100 + g), 1u);

  // Blackout-anatomy invariant under faults too: the most recent attempt's
  // waterfall sums exactly to its blackout on every terminal outcome,
  // completed or aborted (an abort before the freeze has both at zero).
  for (const MigrationOutcome& o : rep.outcomes) {
    EXPECT_EQ(o.report.waterfall_total(), o.report.service_blackout())
        << "guest " << o.guest << ": " << o.report.waterfall_json();
  }
}

// Acceptance: in the deterministic 8-host drain, every migration's emitted
// phase durations sum EXACTLY to the blackout the report claims, and the
// slices tile [freeze_at, resume_at] without gaps.
TEST(ClusterDrainTest, WaterfallDurationsSumExactlyToBlackout) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = 7;
  ClusterModel model(cfg);
  for (GuestId g = 0; g < 6; ++g) {
    ASSERT_TRUE(model.add_guest(1, 100 + g, busy_profile()).is_ok());
    ASSERT_TRUE(model.add_guest(2 + g, 200 + g, busy_profile()).is_ok());
    ASSERT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(5));

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 4;
  scfg.limits.max_concurrent_per_source = 4;
  scfg.limits.max_concurrent_per_dest = 4;
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  const DrainReport rep = drain.run(1);
  ASSERT_TRUE(rep.ok) << format_drain_report(rep);
  ASSERT_EQ(rep.outcomes.size(), 6u);

  for (const MigrationOutcome& o : rep.outcomes) {
    const migrlib::MigrationReport& r = o.report;
    ASSERT_FALSE(r.waterfall.empty()) << "guest " << o.guest;
    // The exact-sum acceptance check.
    EXPECT_EQ(r.waterfall_total(), r.service_blackout())
        << "guest " << o.guest << ": " << r.waterfall_json();
    // Gap-free tiling of the blackout window.
    EXPECT_EQ(r.waterfall.front().start, r.freeze_at);
    sim::TimeNs cursor = r.freeze_at;
    for (const migrlib::PhaseSlice& s : r.waterfall) {
      EXPECT_EQ(s.start, cursor) << "guest " << o.guest << " slice " << s.name;
      EXPECT_GE(s.dur, 0) << "guest " << o.guest << " slice " << s.name;
      cursor = s.start + s.dur;
    }
    EXPECT_EQ(cursor, r.resume_at) << "guest " << o.guest;
    // And the summary fields agree with the attribution.
    EXPECT_EQ(r.waterfall_total(), r.blackout_components()) << "guest " << o.guest;
  }

  // The fleet rollup covers the five real phases plus the thaw marker, and
  // its totals equal the slice-wise sums.
  ASSERT_FALSE(rep.phase_rollup.empty());
  sim::DurationNs rollup_total = 0;
  std::uint64_t worst_total = 0;
  for (const PhaseAttribution& a : rep.phase_rollup) {
    rollup_total += a.total;
    worst_total += a.worst_count;
  }
  sim::DurationNs blackout_total = 0;
  for (const MigrationOutcome& o : rep.outcomes) blackout_total += o.report.service_blackout();
  EXPECT_EQ(rollup_total, blackout_total);
  EXPECT_EQ(worst_total, rep.outcomes.size());  // one dominant phase per migration
}

// Acceptance: a forced abort under loss leaves a flight-recorder dump with
// the offending traffic's last-window packets (QPNs and all).
TEST(ClusterDrainLossyTest, ForcedAbortUnderLossDumpsFlightRecorder) {
  auto& rec = obs::FlightRecorder::global();
  rec.clear();
  rec.set_enabled(true);

  ClusterConfig cfg;
  cfg.hosts = 4;
  cfg.seed = 5;
  ClusterModel model(cfg);
  ASSERT_TRUE(model.add_guest(1, 100, busy_profile()).is_ok());
  ASSERT_TRUE(model.add_guest(2, 200, busy_profile()).is_ok());
  ASSERT_TRUE(model.connect_guests(100, 200).is_ok());
  model.run_for(sim::msec(2));

  fault::ScenarioRunner scenario(model.loop(), model.fabric());
  fault::FaultPlan plan;
  plan.baseline(0.02);
  scenario.run(plan);
  // The pinned destination never answers: the transfer deadline trips and
  // the migration aborts.
  model.fabric().set_partitioned(3, true);

  SchedulerConfig scfg;
  scfg.migration.transfer_timeout = sim::msec(2);
  scfg.migration.max_transfer_retries = 0;
  scfg.max_retries = 0;
  MigrationScheduler sched(model, scfg);

  MigrationOutcome out;
  bool terminal = false;
  sched.submit({100, 3, 0}, [&](const MigrationOutcome& o) {
    out = o;
    terminal = true;
  });
  ASSERT_TRUE(sched.run_until_idle(sim::sec(60)).is_ok());
  ASSERT_TRUE(terminal);
  ASSERT_TRUE(out.report.aborted) << out.error;

  EXPECT_GE(rec.dumps_triggered(), 1u);
  const std::string& dump = rec.last_dump_json();
  EXPECT_NE(dump.find("\"reason\":\"migration_abort\""), std::string::npos) << dump;
  // The capture window holds real wire traffic from the guest's host,
  // decoded down to QPN/PSN.
  EXPECT_NE(dump.find("\"src\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"qpn\":"), std::string::npos);
  EXPECT_NE(dump.find("\"psn\":"), std::string::npos);

  rec.set_enabled(false);
  rec.clear();
}

}  // namespace
}  // namespace migr::cluster
