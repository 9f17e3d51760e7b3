#include <gtest/gtest.h>

#include "apps/minihadoop.hpp"
#include "apps/msg_node.hpp"
#include "apps/perftest.hpp"
#include "migr/migration.hpp"
#include "rnic/world.hpp"

namespace migr::apps {
namespace {

using migrlib::GuestDirectory;
using migrlib::MigrationController;
using migrlib::MigrationOptions;
using migrlib::MigrationReport;
using migrlib::MigrRdmaRuntime;

class AppsTest : public ::testing::Test {
 protected:
  AppsTest() {
    for (net::HostId h = 1; h <= 6; ++h) {
      devices_[h] = &world_.add_device(h);
      runtimes_[h] = std::make_unique<MigrRdmaRuntime>(directory_, *devices_[h],
                                                       world_.fabric());
    }
  }

  void run_for(sim::DurationNs d) { world_.loop().run_until(world_.loop().now() + d); }

  MigrationReport migrate(migrlib::GuestId id, net::HostId dest,
                          migrlib::MigratableApp* app, MigrationOptions opts = {}) {
    auto& dest_proc = world_.add_process("dest");
    MigrationController ctl(world_.loop(), world_.fabric(), directory_, opts);
    MigrationReport out;
    bool done = false;
    EXPECT_TRUE(
        ctl.start(id, dest, dest_proc, app, [&](const MigrationReport& r) {
             out = r;
             done = true;
           })
            .is_ok());
    const sim::TimeNs deadline = world_.loop().now() + sim::sec(60);
    while (!done && world_.loop().now() < deadline) run_for(sim::msec(1));
    EXPECT_TRUE(done);
    return out;
  }

  rnic::World world_;
  GuestDirectory directory_;
  std::unordered_map<net::HostId, rnic::Device*> devices_;
  std::unordered_map<net::HostId, std::unique_ptr<MigrRdmaRuntime>> runtimes_;
};

// ---------------------------------------------------------------------------
// perftest
// ---------------------------------------------------------------------------

TEST_F(AppsTest, PerftestWriteBandwidthReachesLineRate) {
  PerftestConfig cfg;
  cfg.num_qps = 4;
  cfg.msg_size = 65536;
  PerftestPeer tx(*runtimes_[1], world_.add_process("tx"), 100, PerftestPeer::Role::sender,
                  cfg);
  PerftestPeer rx(*runtimes_[2], world_.add_process("rx"), 200,
                  PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  run_for(sim::msec(20));
  const double gbps = static_cast<double>(tx.stats().completed_bytes) * 8.0 /
                      static_cast<double>(sim::msec(20));
  EXPECT_GT(gbps, 80.0) << "should approach 100 Gbps line rate";
  EXPECT_EQ(tx.stats().errors, 0u);
  EXPECT_EQ(tx.stats().order_violations, 0u);
}

TEST_F(AppsTest, PerftestSendRecvVerifiesSequenceAndContent) {
  PerftestConfig cfg;
  cfg.num_qps = 2;
  cfg.msg_size = 4096;
  cfg.opcode = rnic::WrOpcode::send;
  cfg.max_messages_per_qp = 500;
  PerftestPeer tx(*runtimes_[1], world_.add_process("tx"), 100, PerftestPeer::Role::sender,
                  cfg);
  PerftestPeer rx(*runtimes_[2], world_.add_process("rx"), 200,
                  PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  run_for(sim::msec(50));
  EXPECT_TRUE(tx.finished());
  EXPECT_EQ(tx.stats().completed_msgs, 1000u);
  EXPECT_EQ(rx.stats().recv_msgs, 1000u);
  EXPECT_EQ(rx.stats().order_violations, 0u);
  EXPECT_EQ(rx.stats().content_corruptions, 0u);
}

TEST_F(AppsTest, PerftestOneToManyPattern) {
  // The migrated container runs one perftest with n QPs; each of n partners
  // runs one QP (§5.4 / Fig. 4c).
  const std::uint32_t n = 4;
  PerftestConfig cfg;
  cfg.num_qps = n;
  cfg.msg_size = 16384;
  PerftestPeer hub(*runtimes_[1], world_.add_process("hub"), 100,
                   PerftestPeer::Role::sender, cfg);
  std::vector<std::unique_ptr<PerftestPeer>> partners;
  PerftestConfig pcfg = cfg;
  pcfg.num_qps = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    partners.push_back(std::make_unique<PerftestPeer>(
        *runtimes_[2 + i], world_.add_process("p" + std::to_string(i)), 200 + i,
        PerftestPeer::Role::receiver, pcfg));
    ASSERT_TRUE(PerftestPeer::connect_pair(hub, i, *partners.back(), 0).is_ok());
  }
  hub.start();
  for (auto& p : partners) p->start();
  run_for(sim::msec(10));
  EXPECT_GT(hub.stats().completed_msgs, 100u);
  EXPECT_EQ(hub.stats().errors, 0u);
}

TEST_F(AppsTest, PerftestSurvivesMigrationWithNoCorruption) {
  PerftestConfig cfg;
  cfg.num_qps = 4;
  cfg.msg_size = 16384;
  cfg.opcode = rnic::WrOpcode::send;
  PerftestPeer tx(*runtimes_[1], world_.add_process("tx"), 100, PerftestPeer::Role::sender,
                  cfg);
  PerftestPeer rx(*runtimes_[3], world_.add_process("rx"), 200,
                  PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  run_for(sim::msec(5));
  auto report = migrate(100, 2, &tx);  // migrate the sender under load
  ASSERT_TRUE(report.ok) << report.error;
  run_for(sim::msec(20));
  EXPECT_GT(tx.stats().completed_msgs, 0u);
  EXPECT_EQ(rx.stats().order_violations, 0u) << "§5.3: order preserved";
  EXPECT_EQ(rx.stats().content_corruptions, 0u) << "§5.3: content intact";
  EXPECT_EQ(rx.stats().errors, 0u);
  EXPECT_EQ(tx.stats().order_violations, 0u);
  // Traffic keeps flowing after migration.
  const auto before = rx.stats().recv_msgs;
  run_for(sim::msec(10));
  EXPECT_GT(rx.stats().recv_msgs, before);
}

TEST_F(AppsTest, ThroughputSamplerTracksTraffic) {
  PerftestConfig cfg;
  cfg.num_qps = 2;
  cfg.msg_size = 65536;
  PerftestPeer tx(*runtimes_[1], world_.add_process("tx"), 100, PerftestPeer::Role::sender,
                  cfg);
  PerftestPeer rx(*runtimes_[2], world_.add_process("rx"), 200,
                  PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  ThroughputSampler sampler(world_.loop(), *devices_[2], sim::msec(5));
  sampler.start();
  tx.start();
  rx.start();
  run_for(sim::msec(50));
  sampler.stop();
  ASSERT_GE(sampler.samples().size(), 8u);
  double peak = 0;
  for (const auto& s : sampler.samples()) peak = std::max(peak, s.rx_gbps);
  EXPECT_GT(peak, 70.0);
}

// ---------------------------------------------------------------------------
// MsgNode
// ---------------------------------------------------------------------------

TEST_F(AppsTest, MsgNodeDelivery) {
  MsgNode a(*runtimes_[1], world_.add_process("a"), 100);
  MsgNode b(*runtimes_[2], world_.add_process("b"), 200);
  ASSERT_TRUE(MsgNode::connect(a, b).is_ok());
  std::vector<std::string> got;
  b.set_handler([&](migrlib::GuestId from, const common::Bytes& p) {
    EXPECT_EQ(from, 100u);
    got.emplace_back(p.begin(), p.end());
  });
  a.start();
  b.start();
  ASSERT_TRUE(a.send(200, common::Bytes{'h', 'i'}).is_ok());
  ASSERT_TRUE(a.send(200, common::Bytes{'y', 'o'}).is_ok());
  run_for(sim::msec(1));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "hi");
  EXPECT_EQ(got[1], "yo");
  EXPECT_EQ(b.errors(), 0u);
}

TEST_F(AppsTest, IdleMsgNodePairCostsAtMostOneTickPerTask) {
  // Nothing to send and no suspension: each node's poller and each guest's
  // wait-before-stop thread ticks once, finds nothing, and parks.
  MsgNode a(*runtimes_[1], world_.add_process("a"), 10);
  MsgNode b(*runtimes_[2], world_.add_process("b"), 20);
  ASSERT_TRUE(MsgNode::connect(a, b).is_ok());
  a.start();
  b.start();
  ASSERT_FALSE(a.guest().suspended());
  ASSERT_FALSE(b.guest().suspended());
  const std::uint64_t before = world_.loop().events_dispatched();
  run_for(sim::msec(10));
  EXPECT_LE(world_.loop().events_dispatched() - before, 4u);
}

TEST_F(AppsTest, MsgNodeWindowBackpressure) {
  MsgNodeConfig cfg;
  cfg.depth = 4;
  MsgNode a(*runtimes_[1], world_.add_process("a"), 100, cfg);
  MsgNode b(*runtimes_[2], world_.add_process("b"), 200, cfg);
  ASSERT_TRUE(MsgNode::connect(a, b).is_ok());
  // Without ticking, credits run dry at the window size.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.send(200, common::Bytes{1}).is_ok()) accepted++;
  }
  EXPECT_EQ(accepted, 4);
  a.start();
  b.start();
  run_for(sim::msec(1));
  EXPECT_TRUE(a.send(200, common::Bytes{1}).is_ok());  // credits returned
}

// ---------------------------------------------------------------------------
// Mini-Hadoop
// ---------------------------------------------------------------------------

struct Cluster {
  std::unique_ptr<MsgNode> master_node, w1_node, w2_node, backup_node;
  std::unique_ptr<HadoopMaster> master;
  std::unique_ptr<HadoopWorker> w1, w2, backup;
};

Cluster make_cluster(AppsTest&, rnic::World& world,
                     std::unordered_map<net::HostId, std::unique_ptr<MigrRdmaRuntime>>& rts,
                     HadoopConfig cfg) {
  Cluster c;
  c.master_node = std::make_unique<MsgNode>(*rts[1], world.add_process("master"), 1000);
  c.w1_node = std::make_unique<MsgNode>(*rts[2], world.add_process("w1"), 1001);
  c.w2_node = std::make_unique<MsgNode>(*rts[3], world.add_process("w2"), 1002);
  c.backup_node = std::make_unique<MsgNode>(*rts[4], world.add_process("backup"), 1003);
  EXPECT_TRUE(MsgNode::connect(*c.master_node, *c.w1_node).is_ok());
  EXPECT_TRUE(MsgNode::connect(*c.master_node, *c.w2_node).is_ok());
  EXPECT_TRUE(MsgNode::connect(*c.master_node, *c.backup_node).is_ok());
  EXPECT_TRUE(MsgNode::connect(*c.w1_node, *c.w2_node).is_ok());
  EXPECT_TRUE(MsgNode::connect(*c.backup_node, *c.w2_node).is_ok());

  c.w1 = std::make_unique<HadoopWorker>(*c.w1_node, cfg, 1000);
  c.w2 = std::make_unique<HadoopWorker>(*c.w2_node, cfg, 1000);
  c.backup = std::make_unique<HadoopWorker>(*c.backup_node, cfg, 1000);
  c.w1->set_replica(1002, c.w2->landing_addr(), c.w2->landing_vrkey());
  c.w2->set_replica(1001, c.w1->landing_addr(), c.w1->landing_vrkey());
  c.backup->set_replica(1002, c.w2->landing_addr(), c.w2->landing_vrkey());
  c.master = std::make_unique<HadoopMaster>(*c.master_node, cfg);
  c.master->add_worker(1001);
  c.master->add_worker(1002);
  c.master->set_backup(1003);

  c.master_node->start();
  c.w1_node->start();
  c.w2_node->start();
  c.backup_node->start();
  c.w1->start();
  c.w2->start();
  c.backup->start();
  return c;
}

HadoopConfig small_job(JobKind kind) {
  HadoopConfig cfg;
  cfg.kind = kind;
  cfg.tasks = 6;
  cfg.blocks_per_task = 4;
  cfg.block_size = 256 * 1024;
  cfg.compute_per_block = sim::msec(5);
  cfg.pi_task_compute = sim::msec(30);
  cfg.failover_recovery = sim::sec(2);
  return cfg;
}

TEST_F(AppsTest, HadoopDfsioJobCompletes) {
  auto c = make_cluster(*this, world_, runtimes_, small_job(JobKind::dfsio));
  c.master->start_job();
  const sim::TimeNs deadline = world_.loop().now() + sim::sec(10);
  while (!c.master->job_done() && world_.loop().now() < deadline) run_for(sim::msec(10));
  ASSERT_TRUE(c.master->job_done());
  EXPECT_EQ(c.master->blocks_completed(), 6u * 4u);
  EXPECT_GT(c.master->jct(), 0);
  EXPECT_EQ(c.master->failovers(), 0u);
  // Both workers contributed.
  EXPECT_GT(c.w1->tasks_completed(), 0u);
  EXPECT_GT(c.w2->tasks_completed(), 0u);
}

TEST_F(AppsTest, HadoopEstimatePiJobCompletes) {
  auto c = make_cluster(*this, world_, runtimes_, small_job(JobKind::estimate_pi));
  c.master->start_job();
  const sim::TimeNs deadline = world_.loop().now() + sim::sec(10);
  while (!c.master->job_done() && world_.loop().now() < deadline) run_for(sim::msec(10));
  ASSERT_TRUE(c.master->job_done());
  EXPECT_EQ(c.master->failovers(), 0u);
}

TEST_F(AppsTest, HadoopFailoverRecoversViaBackup) {
  auto cfg = small_job(JobKind::dfsio);
  // A longer job so the worker dies mid-job and the surviving worker alone
  // cannot finish before the backup's recovery delay elapses.
  cfg.tasks = 12;
  cfg.compute_per_block = sim::msec(60);
  auto c = make_cluster(*this, world_, runtimes_, cfg);
  c.master->start_job();
  run_for(sim::msec(150));
  // Worker 1's host dies.
  world_.fabric().set_partitioned(2, true);
  c.w1->stop();
  const sim::TimeNs deadline = world_.loop().now() + sim::sec(30);
  while (!c.master->job_done() && world_.loop().now() < deadline) run_for(sim::msec(10));
  ASSERT_TRUE(c.master->job_done());
  EXPECT_EQ(c.master->failovers(), 1u);
  EXPECT_GT(c.backup->tasks_completed(), 0u);
  // The recovery delay shows up in the JCT.
  EXPECT_GT(c.master->jct(), cfg.failover_recovery);
}

TEST_F(AppsTest, HadoopWorkerMigratesWithoutFailover) {
  auto cfg = small_job(JobKind::dfsio);
  cfg.tasks = 8;
  auto c = make_cluster(*this, world_, runtimes_, cfg);
  c.master->start_job();
  run_for(sim::msec(100));
  // Maintenance: migrate worker 1 (host 2 -> host 5) mid-job.
  auto report = migrate(1001, 5, c.w1.get());
  ASSERT_TRUE(report.ok) << report.error;
  const sim::TimeNs deadline = world_.loop().now() + sim::sec(30);
  while (!c.master->job_done() && world_.loop().now() < deadline) run_for(sim::msec(10));
  ASSERT_TRUE(c.master->job_done());
  // The master never noticed: no failover, and the migrated worker kept
  // completing tasks from the new host.
  EXPECT_EQ(c.master->failovers(), 0u);
  EXPECT_GT(c.w1->tasks_completed(), 0u);
  EXPECT_EQ(c.master->blocks_completed(), 8u * 4u);
}

}  // namespace
}  // namespace migr::apps
