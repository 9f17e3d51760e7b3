// Fault-injection subsystem + migration abort/rollback:
//
//  * FaultPlan/ScenarioRunner: window composition (max semantics, partition
//    refcounts), heal ordering, seeded-plan determinism down to the packet
//    counters;
//  * MigrationController abort paths: destination partition during the
//    image transfer (retry budget exhausted -> abort), WBS timeout with the
//    abort policy enabled, and the legacy forced-stop-and-copy default;
//  * rollback cleanliness: after an abort the source keeps serving, no QP
//    is left stuck, and a later migration of the same guest succeeds;
//  * a migration over a lossy ctrl plane: chunk re-sends, clean §5.3
//    checks, and a wire balance that matches the fabric's own count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/perftest.hpp"
#include "fault/fault.hpp"
#include "migr/migration.hpp"
#include "rnic/world.hpp"

namespace migr {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan / ScenarioRunner
// ---------------------------------------------------------------------------

TEST(ScenarioRunner, OverlappingWindowsComposeByMaxAndHealCleanly) {
  sim::EventLoop loop;
  net::Fabric fabric(loop, {}, /*seed=*/1);
  fault::ScenarioRunner runner(loop, fabric);

  fault::FaultPlan plan;
  plan.baseline(0.01)
      .loss_burst(sim::msec(1), sim::msec(4), 0.2)
      .loss_burst(sim::msec(2), sim::msec(1), 0.5)
      .partition(sim::msec(1), sim::msec(2), 7)
      .partition(sim::msec(2), sim::msec(2), 7)
      .ctrl_delay(sim::msec(3), sim::msec(1), sim::usec(100));
  runner.run(plan);

  // Baseline is installed immediately.
  EXPECT_DOUBLE_EQ(fabric.faults().data_loss_prob, 0.01);
  EXPECT_FALSE(fabric.partitioned(7));

  loop.run_until(sim::msec(1) + sim::usec(1));
  EXPECT_DOUBLE_EQ(fabric.faults().data_loss_prob, 0.2);
  EXPECT_TRUE(fabric.partitioned(7));

  // Both bursts and both partition windows overlap here: max loss wins, the
  // partition refcount is 2.
  loop.run_until(sim::msec(2) + sim::usec(500));
  EXPECT_DOUBLE_EQ(fabric.faults().data_loss_prob, 0.5);
  EXPECT_TRUE(fabric.partitioned(7));

  // Burst #2 healed, partition window #1 healed (refcount 1 -> still cut).
  loop.run_until(sim::msec(3) + sim::usec(500));
  EXPECT_DOUBLE_EQ(fabric.faults().data_loss_prob, 0.2);
  EXPECT_TRUE(fabric.partitioned(7));
  EXPECT_EQ(fabric.faults().ctrl_delay, sim::usec(100));

  // Second partition window + ctrl delay healed.
  loop.run_until(sim::msec(4) + sim::usec(500));
  EXPECT_FALSE(fabric.partitioned(7));
  EXPECT_EQ(fabric.faults().ctrl_delay, 0);

  // Everything healed: back to the baseline, ledger balanced.
  loop.run_until(sim::msec(6));
  EXPECT_DOUBLE_EQ(fabric.faults().data_loss_prob, 0.01);
  EXPECT_FALSE(runner.any_active());
  EXPECT_EQ(runner.applied(), 5u);
  EXPECT_EQ(runner.healed(), 5u);
}

TEST(ScenarioRunner, SeededPlanIsDeterministicDownToPacketCounters) {
  // Bursts inside the first ~150 us so they overlap the 500-message stream
  // below (2 MB at 100 Gbps is on the order of 170 us).
  fault::FaultPlan plan = fault::FaultPlan::random_bursts(
      /*seed=*/7, /*bursts=*/5, sim::usec(10), sim::usec(150), sim::usec(50), 0.3);
  fault::FaultPlan plan2 = fault::FaultPlan::random_bursts(
      /*seed=*/7, /*bursts=*/5, sim::usec(10), sim::usec(150), sim::usec(50), 0.3);
  ASSERT_EQ(plan.events().size(), plan2.events().size());
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    EXPECT_EQ(plan.events()[i].at, plan2.events()[i].at);
  }

  // The same (world seed, plan) pair must replay the identical packet
  // history: run the same lossy stream twice in independent worlds.
  auto run_world = [&plan]() {
    struct Out {
      std::uint64_t dropped = 0;
      std::uint64_t tx = 0;
      std::uint64_t msgs = 0;
    } out;
    rnic::World world({}, /*seed=*/99);
    auto& dev_a = world.add_device(1);
    auto& dev_b = world.add_device(2);
    (void)dev_a;
    (void)dev_b;
    migrlib::GuestDirectory dir;
    migrlib::MigrRdmaRuntime rt1(dir, dev_a, world.fabric());
    migrlib::MigrRdmaRuntime rt2(dir, dev_b, world.fabric());
    fault::ScenarioRunner runner(world.loop(), world.fabric());
    runner.run(plan);
    apps::PerftestConfig cfg;
    cfg.num_qps = 1;
    cfg.msg_size = 4096;
    cfg.queue_depth = 8;
    cfg.opcode = rnic::WrOpcode::rdma_write;
    cfg.max_messages_per_qp = 500;
    apps::PerftestPeer tx(rt1, world.add_process("tx"), 1, apps::PerftestPeer::Role::sender,
                          cfg);
    apps::PerftestPeer rx(rt2, world.add_process("rx"), 2,
                          apps::PerftestPeer::Role::receiver, cfg);
    EXPECT_TRUE(apps::PerftestPeer::connect_pair(tx, 0, rx, 0).is_ok());
    tx.start();
    rx.start();
    world.loop().run_until(sim::msec(5));
    out.dropped = world.fabric().stats(1).data_packets_dropped;
    out.tx = world.fabric().stats(1).data_packets_tx;
    out.msgs = tx.stats().completed_msgs;
    return std::make_tuple(out.dropped, out.tx, out.msgs);
  };
  const auto first = run_world();
  const auto second = run_world();
  EXPECT_GT(std::get<0>(first), 0u) << "plan never dropped a packet";
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Migration abort/rollback
// ---------------------------------------------------------------------------

// Three hosts: guest 1 (tx) on host 1, its partner guest 2 (rx) on host 3;
// migrations move guest 1 to host 2.
struct MigrationHarness {
  rnic::World world;
  std::vector<rnic::Device*> devices;
  migrlib::GuestDirectory dir;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  std::unique_ptr<apps::PerftestPeer> tx;
  std::unique_ptr<apps::PerftestPeer> rx;

  explicit MigrationHarness(std::uint64_t seed = 42,
                            rnic::WrOpcode opcode = rnic::WrOpcode::rdma_write)
      : world({}, seed) {
    for (net::HostId h = 1; h <= 3; ++h) {
      devices.push_back(&world.add_device(h));
      rts.push_back(
          std::make_unique<migrlib::MigrRdmaRuntime>(dir, *devices.back(), world.fabric()));
    }
    apps::PerftestConfig cfg;
    cfg.num_qps = 2;
    cfg.msg_size = 8192;
    cfg.queue_depth = 16;
    cfg.opcode = opcode;
    tx = std::make_unique<apps::PerftestPeer>(*rts[0], world.add_process("tx"), 1,
                                              apps::PerftestPeer::Role::sender, cfg);
    rx = std::make_unique<apps::PerftestPeer>(*rts[2], world.add_process("rx"), 2,
                                              apps::PerftestPeer::Role::receiver, cfg);
    for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
      EXPECT_TRUE(apps::PerftestPeer::connect_pair(*tx, i, *rx, i).is_ok());
    }
    tx->start();
    rx->start();
    world.loop().run_until(world.loop().now() + sim::msec(3));
  }

  migrlib::MigrationReport migrate(migrlib::MigrationOptions opts) {
    auto& dest = world.add_process("dest");
    migrlib::MigrationController ctl(world.loop(), world.fabric(), dir, opts);
    migrlib::MigrationReport report;
    bool done = false;
    EXPECT_TRUE(ctl.start(1, 2, dest, tx.get(), [&](const migrlib::MigrationReport& r) {
                     report = r;
                     done = true;
                   })
                    .is_ok());
    const sim::TimeNs deadline = world.loop().now() + sim::sec(60);
    while (!done && world.loop().now() < deadline) {
      world.loop().run_until(world.loop().now() + sim::msec(1));
    }
    EXPECT_TRUE(done) << "migration neither completed nor aborted";
    return report;
  }

  // Source service still making forward progress?
  bool traffic_flowing() {
    const auto before = tx->stats().completed_msgs;
    world.loop().run_until(world.loop().now() + sim::msec(10));
    return tx->stats().completed_msgs > before;
  }

  std::vector<rnic::Qpn> stuck_qps(sim::DurationNs stale_after = sim::msec(200)) {
    std::vector<rnic::Qpn> all;
    for (auto* dev : devices) {
      auto s = dev->audit_stuck_qps(stale_after);
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  }
};

TEST(MigrationAbort, DestPartitionDuringTransferAbortsAndSourceResumes) {
  MigrationHarness h;

  // Cut the destination off for 500 ms, starting now: every ctrl-plane
  // transfer attempt into host 2 silently vanishes.
  fault::ScenarioRunner runner(h.world.loop(), h.world.fabric());
  fault::FaultPlan plan;
  plan.partition(/*at=*/0, /*duration=*/sim::msec(300), /*host=*/2);
  runner.run(plan);

  migrlib::MigrationOptions opts;
  opts.transfer_timeout = sim::msec(20);
  opts.max_transfer_retries = 2;
  opts.transfer_retry_backoff = sim::msec(5);
  const auto report = h.migrate(opts);

  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.aborted);
  EXPECT_FALSE(report.abort_reason.empty());
  EXPECT_FALSE(report.abort_phase.empty());
  EXPECT_TRUE(report.source_resumed);
  EXPECT_GE(report.transfer_retries, 1u);

  // Rollback cleanliness: the source keeps serving and nothing is stuck.
  EXPECT_TRUE(h.traffic_flowing());
  h.world.loop().run_until(h.world.loop().now() + sim::msec(300));
  EXPECT_TRUE(h.stuck_qps().empty());

  // Once the partition heals, the same guest migrates successfully — the
  // abort left no half-staged resources or dangling partner QPs behind.
  ASSERT_FALSE(h.world.fabric().partitioned(2));
  const auto second = h.migrate(migrlib::MigrationOptions{});
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_FALSE(second.aborted);
  EXPECT_TRUE(h.traffic_flowing());
  EXPECT_EQ(h.tx->stats().errors, 0u);
  EXPECT_EQ(h.rx->stats().content_corruptions, 0u);
}

// Every image chunk and every chunk ACK crosses the ctrl plane, so a lossy
// management network costs chunk re-sends, not the migration. The guest
// sends (SENDs, so the receiver checks order and content) to a partner on a
// third host throughout.
TEST(MigrationCtrlLoss, LossyCtrlPlaneRetriesChunksAndMigrationStaysClean) {
  MigrationHarness h(/*seed=*/42, rnic::WrOpcode::send);
  net::Faults f = h.world.fabric().faults();
  f.ctrl_loss_prob = 0.05;
  h.world.fabric().set_faults(f);
  // Only the mux's chunk frames leave the source host on the ctrl plane.
  const std::uint64_t ctrl_tx_before = h.world.fabric().stats(1).ctrl_bytes_tx;

  migrlib::MigrationOptions opts;
  opts.xfer_chunk_bytes = 4096;  // page-sized chunks: hundreds per image
  opts.transfer_timeout = sim::msec(2);
  opts.max_transfer_retries = 8;
  opts.transfer_retry_backoff = sim::usec(500);
  const auto report = h.migrate(opts);

  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.aborted);
  EXPECT_GT(report.transfer_retries, 0u) << "5% ctrl loss must hit the chunk retry path";
  EXPECT_GT(report.xfer_bytes_lost, 0u) << "5% ctrl loss must drop some chunk";
  EXPECT_EQ(h.world.fabric().stats(1).ctrl_bytes_tx - ctrl_tx_before,
            report.xfer_bytes_attempted);
  EXPECT_EQ(report.xfer_bytes_attempted,
            report.xfer_bytes_delivered + report.xfer_bytes_lost);
  std::uint64_t attempted = 0, delivered = 0, retries = 0;
  for (const auto& s : report.xfer_stream_stats) {
    attempted += s.bytes_attempted;
    delivered += s.bytes_delivered;
    retries += s.retries;
  }
  EXPECT_EQ(attempted, report.xfer_bytes_attempted);
  EXPECT_EQ(delivered, report.xfer_bytes_delivered);
  EXPECT_EQ(retries, report.transfer_retries);

  // §5.3 across the migration: nothing lost, duplicated, reordered or
  // corrupted, and the migrated guest keeps sending.
  EXPECT_TRUE(h.traffic_flowing());
  EXPECT_EQ(h.tx->stats().errors, 0u);
  EXPECT_EQ(h.tx->stats().order_violations, 0u);
  EXPECT_EQ(h.rx->stats().errors, 0u);
  EXPECT_EQ(h.rx->stats().order_violations, 0u);
  EXPECT_EQ(h.rx->stats().content_corruptions, 0u);
  EXPECT_GT(h.rx->stats().recv_msgs, 0u);
  EXPECT_TRUE(h.stuck_qps().empty());
}

TEST(MigrationAbort, WbsTimeoutAbortPolicyRollsBack) {
  MigrationHarness h;
  // A WBS deadline shorter than one fabric RTT can never be met while
  // partner traffic is in flight; with the abort policy the controller must
  // cancel and resume the source instead of forcing stop-and-copy.
  migrlib::MigrationOptions opts;
  opts.wbs_timeout = sim::usec(1);
  opts.abort_on_wbs_timeout = true;
  const auto report = h.migrate(opts);

  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.aborted);
  EXPECT_TRUE(report.source_resumed);
  EXPECT_FALSE(report.abort_reason.empty());
  EXPECT_TRUE(h.traffic_flowing());
  h.world.loop().run_until(h.world.loop().now() + sim::msec(300));
  EXPECT_TRUE(h.stuck_qps().empty());
}

TEST(MigrationAbort, WbsTimeoutDefaultStillForcesStopAndCopy) {
  MigrationHarness h;
  // Same impossible deadline, default policy: §3.4 forced stop-and-copy.
  // The migration completes; in-flight WRs were harvested for replay.
  migrlib::MigrationOptions opts;
  opts.wbs_timeout = sim::usec(1);
  const auto report = h.migrate(opts);

  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.aborted);
  EXPECT_TRUE(report.wbs_timed_out);
  EXPECT_TRUE(h.traffic_flowing());
  EXPECT_EQ(h.rx->stats().content_corruptions, 0u);
}

}  // namespace
}  // namespace migr
