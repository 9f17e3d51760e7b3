// Blackout critical-path attribution (DESIGN.md §16).
//
//  * CpRecorder/resolve unit tests: the tiling invariant (sum of edge
//    durations == window length, gap-free edge walk) on clean, overlapping,
//    gapped, clamped, and empty interval sets; slack fill; coalescing;
//    dominant-edge selection;
//  * end-to-end: a real migration with critical_path on resolves a valid
//    attribution whose total equals service_blackout() exactly — on a clean
//    pre-copy run, a post-copy run, an aborted run (partitioned
//    destination), and an FT failover (total == failover_blackout());
//  * under ctrl-plane loss the retry machinery shows up as chunk_retry
//    edges, and with a pre-synced (cheap) restore they dominate.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/msg_node.hpp"
#include "apps/perftest.hpp"
#include "fault/fault.hpp"
#include "ft/ft.hpp"
#include "migr/migration.hpp"
#include "obs/critical_path.hpp"
#include "rnic/world.hpp"

namespace migr {
namespace {

using obs::CpRecorder;
using obs::CriticalPath;
using obs::EdgeClass;

// ---------------------------------------------------------------------------
// Resolve unit tests
// ---------------------------------------------------------------------------

// Every resolved path must tile its window: edges start at window_start,
// each edge begins where the previous ended, the last ends at window_end,
// and the by_class totals are a lossless decomposition of total().
void expect_tiles(const CriticalPath& cp) {
  ASSERT_TRUE(cp.valid);
  ASSERT_FALSE(cp.edges.empty());
  EXPECT_EQ(cp.edges.front().start, cp.window_start);
  std::int64_t cursor = cp.window_start;
  for (const auto& e : cp.edges) {
    EXPECT_EQ(e.start, cursor) << "gap before edge " << obs::edge_class_name(e.cls);
    EXPECT_GT(e.dur(), 0);
    cursor = e.end;
  }
  EXPECT_EQ(cursor, cp.window_end);
  std::int64_t by_class_sum = 0;
  for (std::size_t c = 0; c < obs::kEdgeClassCount; ++c) by_class_sum += cp.by_class[c];
  EXPECT_EQ(by_class_sum, cp.total());
}

TEST(CriticalPathResolve, EmptyOrInvertedWindowIsInvalid) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(0, 10, EdgeClass::ckpt_dump);
  EXPECT_FALSE(rec.resolve(100, 100).valid);
  EXPECT_FALSE(rec.resolve(100, 50).valid);
}

TEST(CriticalPathResolve, DisabledRecorderIgnoresAddAndResolvesToSlack) {
  CpRecorder rec;  // never enabled
  rec.add(0, 100, EdgeClass::ckpt_dump);
  EXPECT_TRUE(rec.intervals().empty());
  const CriticalPath cp = rec.resolve(0, 100);
  expect_tiles(cp);
  ASSERT_EQ(cp.edges.size(), 1u);
  EXPECT_EQ(cp.edges[0].cls, EdgeClass::slack);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::slack)], 100);
  EXPECT_EQ(cp.dominant(), EdgeClass::slack);  // nothing else recorded
}

TEST(CriticalPathResolve, RejectsEmptyIntervals) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(50, 50, EdgeClass::ckpt_dump);  // zero length
  rec.add(60, 40, EdgeClass::ckpt_dump);  // inverted
  EXPECT_TRUE(rec.intervals().empty());
}

TEST(CriticalPathResolve, SequentialIntervalsTileExactly) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(0, 40, EdgeClass::ckpt_dump, "dump");
  rec.add(40, 70, EdgeClass::chunk_wire, "image");
  rec.add(70, 100, EdgeClass::restore_apply, "restore");
  const CriticalPath cp = rec.resolve(0, 100);
  expect_tiles(cp);
  ASSERT_EQ(cp.edges.size(), 3u);
  EXPECT_EQ(cp.edges[0].cls, EdgeClass::ckpt_dump);
  EXPECT_EQ(cp.edges[1].cls, EdgeClass::chunk_wire);
  EXPECT_EQ(cp.edges[2].cls, EdgeClass::restore_apply);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::ckpt_dump)], 40);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::slack)], 0);
  EXPECT_EQ(cp.dominant(), EdgeClass::ckpt_dump);  // largest non-slack
}

TEST(CriticalPathResolve, GapsBetweenIntervalsBecomeSlack) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(10, 30, EdgeClass::ckpt_dump);
  rec.add(60, 90, EdgeClass::restore_apply);
  const CriticalPath cp = rec.resolve(0, 100);
  expect_tiles(cp);
  // slack [0,10) + dump [10,30) + slack [30,60) + restore [60,90) + slack [90,100)
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::slack)], 10 + 30 + 10);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::ckpt_dump)], 20);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::restore_apply)], 30);
  EXPECT_EQ(cp.dominant(), EdgeClass::restore_apply);
}

TEST(CriticalPathResolve, OverlappingIntervalsNeverDoubleCount) {
  CpRecorder rec;
  rec.set_enabled(true);
  // Two overlapping waits: the backward walk picks whichever covers the
  // cursor; the overlap region is attributed once, not twice.
  rec.add(0, 60, EdgeClass::chunk_wire);
  rec.add(40, 100, EdgeClass::chunk_retry);
  const CriticalPath cp = rec.resolve(0, 100);
  expect_tiles(cp);
  EXPECT_EQ(cp.total(), 100);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::slack)], 0);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::chunk_wire)] +
                cp.by_class[static_cast<std::size_t>(EdgeClass::chunk_retry)],
            100);
}

TEST(CriticalPathResolve, IntervalsOutsideTheWindowAreClamped) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(-50, 20, EdgeClass::ckpt_dump);     // straddles window start
  rec.add(80, 500, EdgeClass::restore_apply); // straddles window end
  rec.add(200, 300, EdgeClass::chunk_wire);   // entirely outside
  const CriticalPath cp = rec.resolve(0, 100);
  expect_tiles(cp);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::ckpt_dump)], 20);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::restore_apply)], 20);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::chunk_wire)], 0);
  EXPECT_EQ(cp.by_class[static_cast<std::size_t>(EdgeClass::slack)], 60);
}

TEST(CriticalPathResolve, AdjacentSameClassSameLabelEdgesCoalesce) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(0, 30, EdgeClass::chunk_wire, "image");
  rec.add(30, 60, EdgeClass::chunk_wire, "image");
  rec.add(60, 100, EdgeClass::chunk_wire, "other");
  const CriticalPath cp = rec.resolve(0, 100);
  expect_tiles(cp);
  ASSERT_EQ(cp.edges.size(), 2u);  // first two merged, label change splits
  EXPECT_EQ(cp.edges[0].dur(), 60);
  EXPECT_EQ(cp.edges[1].dur(), 40);
}

TEST(CriticalPathResolve, MessyOverlapsStillTile) {
  // A deliberately ugly interval soup (nested, duplicated, partial
  // overlaps, out-of-order appends): whatever the walk picks, the tiling
  // invariant must hold — that is the property CI pins on real artifacts.
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(700, 900, EdgeClass::restore_apply);
  rec.add(0, 1000, EdgeClass::wbs_wait);
  rec.add(100, 400, EdgeClass::ckpt_dump);
  rec.add(150, 350, EdgeClass::chunk_wire);
  rec.add(100, 400, EdgeClass::ckpt_dump);  // duplicate
  rec.add(380, 720, EdgeClass::chunk_retry);
  const CriticalPath cp = rec.resolve(50, 950);
  expect_tiles(cp);
  EXPECT_EQ(cp.total(), 900);
}

TEST(CriticalPathResolve, JsonCarriesSchemaFields) {
  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(0, 40, EdgeClass::ckpt_dump, "dump");
  const std::string j = common::to_json(rec.resolve(0, 100));
  for (const char* needle :
       {"\"window_start_ns\":0", "\"window_end_ns\":100", "\"total_ns\":100",
        "\"dominant\":\"ckpt_dump\"", "\"by_class\"", "\"slack\":60", "\"edges\"",
        "\"label\":\"dump\""}) {
    EXPECT_NE(j.find(needle), std::string::npos) << "missing " << needle << " in " << j;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: migrations attribute their whole blackout
// ---------------------------------------------------------------------------

// Three hosts: guest 1 (tx) on host 1, partner guest 2 (rx) on host 3;
// migrations move guest 1 to host 2 (same topology as fault_test.cpp).
struct CpHarness {
  rnic::World world;
  migrlib::GuestDirectory dir;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  std::unique_ptr<apps::PerftestPeer> tx;
  std::unique_ptr<apps::PerftestPeer> rx;

  explicit CpHarness(std::uint64_t seed = 42) : world({}, seed) {
    for (net::HostId h = 1; h <= 3; ++h) {
      rts.push_back(std::make_unique<migrlib::MigrRdmaRuntime>(dir, world.add_device(h),
                                                               world.fabric()));
    }
    apps::PerftestConfig cfg;
    cfg.num_qps = 2;
    cfg.msg_size = 8192;
    cfg.queue_depth = 16;
    cfg.opcode = rnic::WrOpcode::rdma_write;
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
    opts.critical_path = true;
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
};

void expect_attributes_blackout(const migrlib::MigrationReport& rep) {
  const CriticalPath& cp = rep.critical_path;
  expect_tiles(cp);
  EXPECT_EQ(cp.window_start, rep.freeze_at);
  EXPECT_EQ(cp.window_end, rep.resume_at);
  EXPECT_EQ(cp.total(), rep.service_blackout())
      << "attribution must cover every ns of the blackout";
}

TEST(CriticalPathEndToEnd, CleanPrecopyAttributesEveryNanosecond) {
  CpHarness h;
  const auto rep = h.migrate(migrlib::MigrationOptions{});
  ASSERT_TRUE(rep.ok) << rep.error;
  expect_attributes_blackout(rep);
  // A clean stop-and-copy is dump- or restore-bound, never retry-bound.
  EXPECT_EQ(rep.critical_path.by_class[static_cast<std::size_t>(EdgeClass::chunk_retry)], 0);
  EXPECT_NE(rep.critical_path.dominant(), EdgeClass::slack);
}

TEST(CriticalPathEndToEnd, PostcopyAttributesEveryNanosecond) {
  CpHarness h;
  migrlib::MigrationOptions opts;
  opts.mode = migrlib::MigrationMode::postcopy;
  const auto rep = h.migrate(opts);
  ASSERT_TRUE(rep.ok) << rep.error;
  expect_attributes_blackout(rep);
}

TEST(CriticalPathEndToEnd, MultifdMuxAttributesEveryNanosecond) {
  CpHarness h;
  migrlib::MigrationOptions opts;
  opts.xfer_streams = 4;
  opts.xfer_stream_gbps = 25.0;
  const auto rep = h.migrate(opts);
  ASSERT_TRUE(rep.ok) << rep.error;
  expect_attributes_blackout(rep);
}

TEST(CriticalPathEndToEnd, AbortedMigrationStillTiles) {
  // A partition from t=0 aborts during pre-copy — before any blackout
  // exists. To abort *mid-blackout* the destination must vanish only once
  // the guest is suspended: discovery run first (same seed, same options,
  // no faults) to learn suspend_at, then a fresh world where the partition
  // opens exactly there. WBS quiesce times out (forced stop-and-copy),
  // freeze happens, and every final-transfer attempt blackholes until the
  // retry budget exhausts inside the blackout window.
  migrlib::MigrationOptions opts;
  opts.wbs_timeout = sim::msec(50);
  opts.transfer_timeout = sim::msec(20);
  opts.max_transfer_retries = 2;
  opts.transfer_retry_backoff = sim::msec(5);

  sim::TimeNs suspend_at = 0;
  {
    CpHarness discover;
    const auto rep = discover.migrate(opts);
    ASSERT_TRUE(rep.ok) << rep.error;
    suspend_at = rep.suspend_at;
    ASSERT_GT(suspend_at, 0);
  }

  CpHarness h;
  fault::ScenarioRunner runner(h.world.loop(), h.world.fabric());
  fault::FaultPlan plan;
  plan.partition(suspend_at, /*duration=*/sim::sec(10), /*host=*/2);
  runner.run(plan);

  const auto rep = h.migrate(opts);
  ASSERT_FALSE(rep.ok);
  ASSERT_TRUE(rep.aborted);
  expect_attributes_blackout(rep);
  EXPECT_GT(rep.critical_path.by_class[static_cast<std::size_t>(EdgeClass::chunk_retry)], 0)
      << "dead transfer attempts must be attributed to the retry loop";
}

// ---------------------------------------------------------------------------
// End-to-end: FT failover
// ---------------------------------------------------------------------------

// Minimal protect-then-kill scenario (same topology as ft_test.cpp): the
// failover blackout [killed_at, resume_at] must be fully attributed.
TEST(CriticalPathEndToEnd, FtFailoverAttributesKilledToResume) {
  rnic::World world({}, /*seed=*/42);
  migrlib::GuestDirectory dir;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  for (net::HostId h : {1, 2, 3}) {
    rts.push_back(
        std::make_unique<migrlib::MigrRdmaRuntime>(dir, world.add_device(h), world.fabric()));
  }
  auto& primary = world.add_process("primary");
  auto& partner = world.add_process("partner");
  auto& backup = world.add_process("backup");
  apps::MsgNode a(*rts[0], primary, /*guest=*/10);
  apps::MsgNode b(*rts[2], partner, /*guest=*/20);
  ASSERT_TRUE(apps::MsgNode::connect(a, b).is_ok());
  a.start();
  b.start();
  world.loop().schedule_every(sim::usec(200), [&a] {
    common::ByteWriter w;
    w.u64(7);
    (void)a.send(20, w.data());
  });

  ft::FtOptions fo;
  fo.criu_costs.freeze = sim::usec(50);
  fo.criu_costs.dump_base = sim::usec(300);
  fo.criu_costs.final_restore_base = sim::msec(2);
  fo.epoch_interval = sim::msec(1);
  fo.heartbeat_interval = sim::msec(1);
  fo.critical_path = true;
  ft::FtController ctrl(world.loop(), world.fabric(), dir, fo);

  bool ready = false, done = false;
  ft::FtReport report;
  ASSERT_TRUE(ctrl.protect(10, /*backup_host=*/2, backup, /*app=*/nullptr, &a,
                           [&](const common::Status&) { ready = true; },
                           [&](const ft::FtReport& r) {
                             report = r;
                             done = true;
                           })
                  .is_ok());
  const sim::TimeNs pdeadline = world.loop().now() + sim::msec(100);
  while (!ready && world.loop().now() < pdeadline) {
    world.loop().run_until(world.loop().now() + sim::usec(100));
  }
  ASSERT_TRUE(ready);
  world.loop().run_until(world.loop().now() + sim::msec(10));
  ctrl.kill_primary();
  const sim::TimeNs deadline = world.loop().now() + sim::msec(200);
  while (!done && world.loop().now() < deadline) {
    world.loop().run_until(world.loop().now() + sim::usec(100));
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.failed_over);

  const CriticalPath& cp = report.critical_path;
  expect_tiles(cp);
  EXPECT_EQ(cp.window_start, report.killed_at);
  EXPECT_EQ(cp.window_end, report.resume_at);
  EXPECT_EQ(cp.total(), report.failover_blackout());
  // The failover chain is detection + promote (ctrl_rtt) and the restore;
  // re_arm (qp_reestablish) is instantaneous in this model configuration.
  EXPECT_GT(cp.by_class[static_cast<std::size_t>(EdgeClass::ctrl_rtt)], 0);
  EXPECT_GT(cp.by_class[static_cast<std::size_t>(EdgeClass::restore_apply)], 0);
  EXPECT_EQ(cp.dominant(), EdgeClass::ctrl_rtt);  // detection dominates here
  // And the report JSON carries the block.
  EXPECT_NE(report.json().find("\"critical_path\""), std::string::npos);
}

}  // namespace
}  // namespace migr
