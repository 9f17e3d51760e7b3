// Continuous fault tolerance: micro-checkpoint epochs, output commit, and
// failover promotion.
//
//  * happy path: protect -> epochs commit -> clean unprotect; the release
//    queue flushed everything, the receiver saw a gapless stream, and the
//    ft_report validates (epoch accounting, monotone commits);
//  * output-commit invariant: kill the primary mid-traffic; no client-
//    visible message from an uncommitted epoch (a leak would surface as a
//    duplicate sequence number after the promoted guest regenerates it);
//  * lossy ctrl plane: chunk and epoch re-sends, monotone commits, and an
//    exactly-once failover;
//  * exactly-once takeover: the GuestDirectory CAS fails loudly on double
//    takeover and wrong-owner claims;
//  * failover waterfall: detect/promote/restore/re_arm/recovery slices tile
//    [killed_at, resume_at] with no gaps (same invariant as migration);
//  * failover trace: every ft and blackout event has an id, and every
//    parent link resolves to a recorded event;
//  * teardown: ending protection drops the standby's staged RDMA state and
//    the partner's prepared QP, and thaws a primary caught mid-capture;
//  * heap bound: the epoch-ACK deadlines cancelled every epoch leave the
//    event heap instead of waiting there for a second;
//  * determinism guard: two seeded kill-primary runs produce byte-identical
//    ft_report JSON;
//  * kill-time sweep: kills across epoch boundaries never release
//    uncommitted output.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "cluster/ft_plan.hpp"
#include "ft_scenario.hpp"
#include "migr/migration.hpp"
#include "obs/trace.hpp"

namespace migr {
namespace {

using migrlib::GuestDirectory;
using testing_ft::expect_strictly_increasing;
using testing_ft::FtScenario;
using testing_ft::kPrimaryGuest;

// ---------------------------------------------------------------------------
// Happy path
// ---------------------------------------------------------------------------

TEST(FtController, ProtectCommitsEpochsAndUnprotectsCleanly) {
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(50));
  EXPECT_TRUE(s.ctrl_->is_protected());
  EXPECT_GE(s.ctrl_->committed_epoch(), 3u);

  s.ctrl_->unprotect();
  s.run_for(sim::msec(5));  // leftover gate entries drain from ticks
  ASSERT_TRUE(s.done_);
  const ft::FtReport& r = s.report_;
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.failed_over);
  EXPECT_GE(r.epochs_committed, 3u);
  EXPECT_GT(r.full_sync_bytes, 0u);
  EXPECT_GT(r.msgs_released, 0u);
  EXPECT_EQ(r.msgs_dropped, 0u);
  // Output commit delays egress by up to a commit latency: the tax is real
  // and measured.
  EXPECT_GT(r.release_delay_p99, 0);

  // Nothing lost, nothing duplicated, nothing reordered on a clean run.
  s.run_for(sim::msec(5));
  ASSERT_FALSE(s.received_.empty());
  expect_strictly_increasing(s.received_);
  for (std::size_t i = 0; i < s.received_.size(); ++i) {
    ASSERT_EQ(s.received_[i], i) << "gap in clean-run delivery";
  }
}

TEST(FtController, EpochAccountingBalancesAndCommitsAreMonotone) {
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(30));
  s.ctrl_->unprotect();
  ASSERT_TRUE(s.done_);
  const ft::FtReport& r = s.report_;

  std::uint64_t incr_wire = 0;
  sim::TimeNs last_commit = 0;
  std::uint64_t last_epoch = 0;
  bool first = true;
  for (const auto& e : r.epochs) {
    if (!first) {
      EXPECT_GT(e.epoch, last_epoch) << "epoch numbers must increase";
    }
    if (e.epoch >= 1) incr_wire += e.wire_bytes;
    if (e.committed_at != 0) {
      EXPECT_GE(e.committed_at, last_commit) << "commit times must be monotone";
      EXPECT_GE(e.committed_at, e.captured_at);
      last_commit = e.committed_at;
    }
    last_epoch = e.epoch;
    first = false;
  }
  EXPECT_EQ(r.epoch_bytes_total, incr_wire);
  EXPECT_GE(r.xfer_bytes_attempted, r.full_sync_bytes + r.epoch_bytes_total);
  // Quiet-ish guest: a steady-state epoch is far smaller than the full sync.
  ASSERT_GE(r.epochs.size(), 3u);
  EXPECT_LT(r.epochs[2].wire_bytes, r.full_sync_bytes / 4);
}

// With the parallel-stream mux carrying the epoch sync, every stream must
// balance (attempted == delivered + lost) and the per-stream rollups must
// sum back to the report totals. Round-robin sharding means the full sync's
// chunks land on every stream, not just the first.
TEST(FtController, MuxCarriedEpochSyncBalancesPerStream) {
  ft::FtOptions o = FtScenario::fast_options();
  o.xfer_streams = 4;
  // Small chunks so even this modest guest's full sync spans all 4 streams
  // (with the 2 MiB default the whole image is one chunk on stream 0).
  o.chunk_bytes = 4096;
  FtScenario s(/*seed=*/42, o);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(30));
  s.ctrl_->unprotect();
  s.run_for(sim::msec(5));
  ASSERT_TRUE(s.done_);
  const ft::FtReport& r = s.report_;
  EXPECT_TRUE(r.ok);
  EXPECT_GE(r.epochs_committed, 3u);
  EXPECT_EQ(r.xfer_streams, 4u);
  ASSERT_EQ(r.xfer_stream_stats.size(), 4u);

  std::uint64_t chunks = 0, attempted = 0, delivered = 0;
  for (const auto& st : r.xfer_stream_stats) {
    EXPECT_GT(st.chunks, 0u) << "a stream carried no chunks";
    EXPECT_EQ(st.bytes_attempted, st.bytes_delivered + st.bytes_lost());
    chunks += st.chunks;
    attempted += st.bytes_attempted;
    delivered += st.bytes_delivered;
  }
  EXPECT_EQ(chunks, r.xfer_chunks);
  EXPECT_EQ(attempted, r.xfer_bytes_attempted);
  EXPECT_EQ(delivered, r.xfer_bytes_delivered);
  EXPECT_EQ(attempted - delivered, r.xfer_bytes_lost);

  // Output commit still holds under the mux: nothing duplicated/reordered.
  s.run_for(sim::msec(5));
  ASSERT_FALSE(s.received_.empty());
  expect_strictly_increasing(s.received_);
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

TEST(FtController, KillPrimaryPromotesBackupWithoutUncommittedOutput) {
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(20));
  const std::size_t received_before_kill = s.received_.size();
  ASSERT_GT(received_before_kill, 0u);

  s.ctrl_->kill_primary();
  ASSERT_TRUE(s.run_until_done());
  const ft::FtReport& r = s.report_;
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.failed_over);
  EXPECT_EQ(s.directory_.locate(kPrimaryGuest), 2u) << "guest must live on the standby";
  EXPECT_GT(r.promoted_epoch, 0u);
  EXPECT_GT(r.resume_at, r.killed_at);
  EXPECT_GT(r.detected_at, r.killed_at);

  // The service must actually resume: new messages arrive after promotion.
  s.run_for(sim::msec(30));
  ASSERT_GT(s.received_.size(), received_before_kill)
      << "no messages delivered after failover";

  // The output-commit invariant: a message released from an uncommitted
  // epoch would be regenerated by the promoted guest and appear twice.
  expect_strictly_increasing(s.received_);

  // Wire-level in-flight loss at the kill is bounded by the send window;
  // everything else is gapless.
  std::uint64_t gap = 0;
  for (std::size_t i = 1; i < s.received_.size(); ++i) {
    gap += s.received_[i] - s.received_[i - 1] - 1;
  }
  gap += s.received_.front();
  EXPECT_LE(gap, 32u) << "more messages lost than the in-flight window";
}

TEST(FtController, FailurePastFailoverReleasesPartnersHeldSends) {
  // Failover switches the partner to its replacement QP and holds its sends
  // to the guest until the promoted guest resumes. If the failover fails
  // there instead, the guest never resumes: the partner must not go on
  // swallowing its sends.
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(5));

  // Suspended toward the guest, the partner intercepts a RECV with a key it
  // never registered; re-posting it fails the partner's switch at failover,
  // after the hold was set.
  migrlib::GuestContext& b = s.b_->guest();
  const migrlib::VQpn qb = s.b_->qp_to(kPrimaryGuest).value();
  const proc::VirtAddr buf = s.partner_proc_->mem().mmap(4096, "probe").value();
  const migrlib::VMr mr = b.reg_mr(s.b_->pd(), buf, 4096, rnic::kAccessLocalWrite).value();
  b.suspend(migrlib::SuspendScope{false, kPrimaryGuest});
  rnic::RecvWr bad;
  bad.sge = {{buf, 64, /*lkey=*/999}};
  ASSERT_TRUE(b.post_recv(qb, bad).is_ok());

  s.ctrl_->kill_primary();
  ASSERT_TRUE(s.run_until_done());
  ASSERT_FALSE(s.report_.ok);
  ASSERT_TRUE(s.report_.failed_over);

  // The partner's send goes on the wire instead of into the hold.
  rnic::SendWr wr;
  wr.opcode = rnic::WrOpcode::send;
  wr.sge = {{buf, 64, mr.vlkey}};
  const std::uint64_t tx_before = s.devices_[2]->counters().tx_packets;
  ASSERT_TRUE(b.post_send(qb, wr).is_ok());
  s.run_for(sim::msec(1));
  EXPECT_GT(s.devices_[2]->counters().tx_packets, tx_before);
}

TEST(FtController, FailoverWaterfallTilesKilledToResume) {
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(10));
  s.ctrl_->kill_primary();
  ASSERT_TRUE(s.run_until_done());
  const ft::FtReport& r = s.report_;
  ASSERT_TRUE(r.failed_over);

  ASSERT_GE(r.waterfall.size(), 5u);
  EXPECT_EQ(r.waterfall.front().name, "detect");
  EXPECT_EQ(r.waterfall.back().name, "recovery");
  sim::TimeNs cursor = r.killed_at;
  for (const auto& slice : r.waterfall) {
    EXPECT_EQ(slice.start, cursor) << "gap before slice " << slice.name;
    cursor += slice.dur;
  }
  EXPECT_EQ(cursor, r.resume_at) << "waterfall must end exactly at resume";
  EXPECT_EQ(r.waterfall_total(), r.failover_blackout());
}

// The failover rides GuestMove's span helpers, as a migration does: every
// "ft" and "migr.blackout" event draws an id, and every parent link names an
// event in the trace. Nothing was evicted, so a missing parent is a
// dangling link, not a dropped event.
TEST(FtController, FailoverSpansCarryIdsAndResolvableParents) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    FtScenario s(/*seed=*/42);
    ASSERT_TRUE(s.protect().is_ok());
    ASSERT_TRUE(s.run_until_protected());
    s.run_for(sim::msec(10));
    s.ctrl_->kill_primary();
    ASSERT_TRUE(s.run_until_done());
    ASSERT_TRUE(s.report_.failed_over);
  }
  tracer.set_enabled(false);
  const std::uint64_t dropped = tracer.dropped();
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.clear();
  ASSERT_EQ(dropped, 0u);

  std::set<std::uint64_t> ids;
  for (const obs::TraceEvent& e : events) {
    if (e.id != 0) ids.insert(e.id);
  }
  std::size_t checked = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.cat == "ft" || e.cat == "migr.blackout") {
      EXPECT_NE(e.id, 0u) << e.cat << " event " << e.name << " has no id";
      checked++;
    }
    if (e.parent != 0) {
      EXPECT_TRUE(ids.contains(e.parent))
          << e.cat << " event " << e.name << " parents to unrecorded " << e.parent;
    }
  }
  EXPECT_GE(checked, 10u);
}

// Every epoch chunk, chunk ACK, epoch ACK and heartbeat crosses the ctrl
// plane. At 5% loss the mux re-sends lost chunks, and a lost epoch ACK
// costs an epoch-level re-send that the backup answers with a re-ACK (it
// never re-applies the epoch). Protection keeps committing, and failover
// still promotes with exactly-once output — also when the ACK of the last
// epoch before the kill was lost, so the backup promotes an epoch the
// primary never committed and releases that epoch's backlog itself.
TEST(FtController, LossyCtrlPlaneRetriesEpochsAndFailsOverExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ft::FtOptions o = FtScenario::fast_options();
    o.transfer_timeout = sim::msec(20);
    o.max_transfer_retries = 3;
    o.transfer_retry_backoff = sim::msec(1);
    // Three lost heartbeats in a row are routine at 5% loss over a long
    // run; the watchdog must not declare a live primary dead.
    o.missed_heartbeats = 10;
    FtScenario s(seed, o);
    net::Faults f;
    f.ctrl_loss_prob = 0.05;
    s.world_.fabric().set_faults(f);
    ASSERT_TRUE(s.protect().is_ok());
    ASSERT_TRUE(s.run_until_protected());
    s.run_for(sim::msec(200));
    ASSERT_TRUE(s.ctrl_->is_protected()) << "protection dropped before the kill";
    const std::size_t received_before_kill = s.received_.size();

    s.ctrl_->kill_primary();
    ASSERT_TRUE(s.run_until_done());
    const ft::FtReport& r = s.report_;
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.failed_over);
    EXPECT_GE(r.transfer_retries, 1u) << "no epoch ACK was lost: the re-send path never ran";
    EXPECT_GE(r.epochs_committed, 50u);

    sim::TimeNs last_commit = 0;
    std::uint64_t last_epoch = 0;
    for (const auto& e : r.epochs) {
      if (e.epoch != 0) {
        EXPECT_GT(e.epoch, last_epoch) << "epoch numbers must increase";
      }
      last_epoch = e.epoch;
      if (e.committed_at == 0) continue;
      EXPECT_GE(e.committed_at, last_commit) << "commits must be monotone";
      last_commit = e.committed_at;
    }
    for (const auto& st : r.xfer_stream_stats) {
      EXPECT_EQ(st.bytes_attempted, st.bytes_delivered + st.bytes_lost());
    }
    EXPECT_GT(r.xfer_bytes_lost, 0u) << "5% ctrl loss must drop some chunk";

    s.run_for(sim::msec(30));
    ASSERT_GT(s.received_.size(), received_before_kill) << "no messages after failover";
    expect_strictly_increasing(s.received_);
  }
}

// ---------------------------------------------------------------------------
// Teardown: ending protection releases what the move staged
// ---------------------------------------------------------------------------

// Protection stages the guest's RDMA state on the standby and has the
// partner pre-establish a replacement QP. Unprotecting must undo both:
// partner_prepare_qp is idempotent, so a stale prepared QP would be handed
// to the next migration, whose connect then fails in partial restore.
TEST(FtTeardown, UnprotectDropsStagedQpsAndTheGuestMigratesAgain) {
  FtScenario s(/*seed=*/42);
  const std::uint32_t partner_qps = s.devices_[2]->qp_count();
  const std::uint32_t standby_qps = s.devices_[1]->qp_count();
  ASSERT_TRUE(s.protect().is_ok());
  s.run_for(sim::msec(5));
  ASSERT_TRUE(s.ready_);
  ASSERT_EQ(s.devices_[2]->qp_count(), partner_qps + 1) << "the partner prepared no QP";
  ASSERT_GT(s.devices_[1]->qp_count(), standby_qps) << "the standby staged no QP";

  s.ctrl_->unprotect();
  ASSERT_TRUE(s.done_);
  EXPECT_TRUE(s.report_.ok);
  EXPECT_EQ(s.devices_[2]->qp_count(), partner_qps);
  EXPECT_EQ(s.devices_[1]->qp_count(), standby_qps);

  migrlib::MigrationController migration(s.world_.loop(), s.world_.fabric(), s.directory_);
  migrlib::MigrationReport rep;
  bool done = false;
  ASSERT_TRUE(migration
                  .start(kPrimaryGuest, /*dest_host=*/2, s.world_.add_process("dest"),
                         s.traffic_.get(),
                         [&](const migrlib::MigrationReport& r) {
                           rep = r;
                           done = true;
                         })
                  .is_ok());
  const sim::TimeNs deadline = s.world_.loop().now() + sim::sec(1);
  while (!done && s.world_.loop().now() < deadline) s.run_for(sim::msec(1));
  ASSERT_TRUE(done);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(s.directory_.locate(kPrimaryGuest), 2u);
}

// An epoch capture freezes the primary briefly and schedules its thaw, which
// returns once protection has ended. Unprotecting inside that freeze must
// thaw the primary itself.
TEST(FtTeardown, UnprotectDuringAnEpochFreezeThawsThePrimary) {
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  const sim::TimeNs deadline = s.world_.loop().now() + sim::msec(50);
  while (!s.primary_proc_->frozen() && s.world_.loop().now() < deadline) {
    s.run_for(sim::usec(1));
  }
  ASSERT_TRUE(s.primary_proc_->frozen()) << "no epoch capture froze the primary";

  s.ctrl_->unprotect();
  s.run_for(sim::msec(10));
  EXPECT_FALSE(s.primary_proc_->frozen());
  const std::size_t received = s.received_.size();
  s.run_for(sim::msec(5));
  EXPECT_GT(s.received_.size(), received) << "the primary's traffic stopped";
}

// Heap-bound pin: every 1 ms epoch re-arms a 1 s epoch-ACK deadline and
// cancels it about a millisecond later. Left in the heap until it expired,
// each cancelled deadline would hold an entry for a second, some thousand at
// once; the heap drops them once they outnumber the live entries.
TEST(HeapBoundPin, CancelledEpochDeadlinesLeaveTheHeap) {
  FtScenario s(/*seed=*/42);
  ASSERT_TRUE(s.protect().is_ok());
  ASSERT_TRUE(s.run_until_protected());
  const std::uint64_t epoch0 = s.ctrl_->committed_epoch();
  const sim::EventLoop& loop = s.world_.loop();
  std::size_t heap_peak = 0;
  for (int i = 0; i < 2000; ++i) {
    s.run_for(sim::msec(1));
    heap_peak = std::max(heap_peak, loop.heap_entries());
    ASSERT_LE(loop.heap_entries(), 2 * loop.pending_events() + 64)
        << "after " << i + 1 << " ms, " << loop.pending_events() << " callbacks scheduled";
  }
  EXPECT_GE(s.ctrl_->committed_epoch() - epoch0, 1000u);
  EXPECT_LT(heap_peak, 200u);
}

TEST(GuestDirectory, TakeoverSucceedsExactlyOnceAndFailsLoudly) {
  GuestDirectory d;
  d.place(kPrimaryGuest, 1);

  EXPECT_TRUE(d.takeover(kPrimaryGuest, 1, 2).is_ok());
  EXPECT_EQ(d.locate(kPrimaryGuest), 2u);

  // Double takeover by the same claimant: loud, not silent.
  auto again = d.takeover(kPrimaryGuest, 1, 2);
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.code(), common::Errc::failed_precondition);

  // Wrong-owner claim (e.g. a stale watchdog naming the old primary).
  auto stale = d.takeover(kPrimaryGuest, 1, 3);
  ASSERT_FALSE(stale.is_ok());
  EXPECT_EQ(stale.code(), common::Errc::failed_precondition);
  EXPECT_EQ(d.locate(kPrimaryGuest), 2u) << "failed takeover must not move the guest";

  auto missing = d.takeover(999, 1, 2);
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.code(), common::Errc::not_found);
}

// ---------------------------------------------------------------------------
// Determinism + kill-time sweep
// ---------------------------------------------------------------------------

std::string run_kill_scenario(std::uint64_t seed, sim::DurationNs kill_after) {
  FtScenario s(seed);
  EXPECT_TRUE(s.protect().is_ok());
  EXPECT_TRUE(s.run_until_protected());
  s.run_for(kill_after);
  s.ctrl_->kill_primary();
  EXPECT_TRUE(s.run_until_done());
  s.run_for(sim::msec(20));
  expect_strictly_increasing(s.received_);
  EXPECT_TRUE(s.report_.ok) << s.report_.error;
  EXPECT_TRUE(s.report_.failed_over);
  return s.report_.json();
}

TEST(FtDeterminism, SeededKillRunsProduceByteIdenticalReports) {
  const std::string first = run_kill_scenario(7, sim::msec(13));
  const std::string second = run_kill_scenario(7, sim::msec(13));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "ft_report must be byte-identical across seeded runs";
}

TEST(FtProperty, KillsAcrossEpochBoundariesNeverLeakUncommittedOutput) {
  // Offsets stride ~0.4 ms over several ~1.5 ms epoch cycles, landing kills
  // mid-freeze, mid-transfer, right after ACKs, and between epochs. The
  // strictly-increasing assertion inside run_kill_scenario is the property.
  for (int i = 0; i < 8; ++i) {
    const sim::DurationNs kill_after = sim::msec(5) + i * sim::usec(397);
    SCOPED_TRACE("kill_after_ns=" + std::to_string(kill_after));
    (void)run_kill_scenario(/*seed=*/100 + i, kill_after);
  }
}

// ---------------------------------------------------------------------------
// Cluster planning
// ---------------------------------------------------------------------------

TEST(FtPlanner, StandbyAvoidsPrimaryAndPartnerHosts) {
  cluster::ClusterConfig cfg;
  cfg.hosts = 4;
  cluster::ClusterModel model(cfg);
  cluster::TrafficProfile busy;
  busy.send_interval = sim::usec(100);
  busy.extra_mem_bytes = 1ull << 20;
  busy.dirty_interval = sim::msec(1);
  ASSERT_TRUE(model.add_guest(1, 10, busy).is_ok());
  ASSERT_TRUE(model.add_guest(2, 20, {}).is_ok());
  ASSERT_TRUE(model.connect_guests(10, 20).is_ok());

  cluster::FtPlanner planner(model);
  auto plan = planner.plan(10);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan->primary, 1u);
  EXPECT_NE(plan->backup, 1u) << "standby on the primary is useless";
  EXPECT_NE(plan->backup, 2u) << "standby must not share a host with a partner";

  // Dirty-rate-driven cadence: 1 MiB/ms dirty rate against a 256 KiB budget
  // clamps to the 2 ms minimum interval.
  EXPECT_EQ(plan->epoch_interval, sim::msec(2));

  // A clean guest gets the default cadence.
  auto idle_plan = planner.plan(20);
  ASSERT_TRUE(idle_plan.is_ok());
  EXPECT_EQ(idle_plan->epoch_interval, ft::FtOptions{}.epoch_interval);

  // plan_all covers both and is deterministic.
  auto all = planner.plan_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].guest, 10u);
  EXPECT_EQ(all[1].guest, 20u);

  // options_for forwards the cadence and adaptive budget.
  ft::FtOptions fo = planner.options_for(plan.value());
  EXPECT_EQ(fo.epoch_interval, plan->epoch_interval);
  EXPECT_EQ(fo.epoch_byte_budget, cluster::FtPlanner::kEpochByteBudget);
}

TEST(FtPlanner, StandbyFallsBackToLeastLoadedEligibleHost) {
  cluster::ClusterConfig cfg;
  cfg.hosts = 4;
  cluster::ClusterModel model(cfg);
  cluster::TrafficProfile chatty;
  chatty.send_interval = sim::usec(100);
  // Guest 10 on host 1, its partner 20 (idle) alone on host 2, two guests
  // on host 3 and one guest offering traffic on host 4.
  ASSERT_TRUE(model.add_guest(1, 10).is_ok());
  ASSERT_TRUE(model.add_guest(2, 20).is_ok());
  ASSERT_TRUE(model.connect_guests(10, 20).is_ok());
  ASSERT_TRUE(model.add_guest(3, 30).is_ok());
  ASSERT_TRUE(model.add_guest(3, 31).is_ok());
  ASSERT_TRUE(model.add_guest(4, 40, chatty).is_ok());

  // The least-loaded placeable host holds the partner...
  ASSERT_EQ(model.least_loaded(model.placeable_hosts(1)).value(), 2u);
  // ...so the standby goes to the least-loaded of the rest.
  auto plan = cluster::FtPlanner(model).plan(10);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan->backup, 4u);
}

}  // namespace
}  // namespace migr
