#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "migr/guest_lib.hpp"
#include "migr/migration.hpp"
#include "migr/plugin.hpp"
#include "migr/runtime.hpp"
#include "rnic/world.hpp"

namespace migr::migrlib {
namespace {

using common::Errc;
using rnic::Cqe;
using rnic::CqeStatus;
using rnic::RecvWr;
using rnic::SendWr;
using rnic::WrOpcode;

/// Cluster fixture: hosts 1..4, each with an RNIC and a MigrRDMA runtime.
class MigrTest : public ::testing::Test {
 protected:
  MigrTest() {
    for (net::HostId h = 1; h <= 4; ++h) {
      devices_[h] = &world_.add_device(h);
      runtimes_[h] = std::make_unique<MigrRdmaRuntime>(directory_, *devices_[h],
                                                       world_.fabric());
    }
  }

  struct App {
    proc::SimProcess* proc = nullptr;
    GuestContext* guest = nullptr;
    VHandle pd = 0, cq = 0;
  };

  App make_app(net::HostId host, GuestId id, const std::string& name) {
    App app;
    app.proc = &world_.add_process(name);
    app.guest = runtimes_[host]->create_guest(*app.proc, id).value();
    app.pd = app.guest->alloc_pd().value();
    app.cq = app.guest->create_cq(4096).value();
    return app;
  }

  struct Buf {
    std::uint64_t addr = 0;
    VMr mr;
  };

  Buf make_buf(App& app, std::uint64_t size,
               std::uint32_t access = rnic::kAccessLocalWrite | rnic::kAccessRemoteWrite |
                                      rnic::kAccessRemoteRead | rnic::kAccessRemoteAtomic) {
    Buf b;
    b.addr = app.proc->mem().mmap(size, "app_buf").value();
    b.mr = app.guest->reg_mr(app.pd, b.addr, size, access).value();
    return b;
  }

  VQpn make_qp(App& app, VHandle srq = 0) {
    GuestQpAttr attr;
    attr.vpd = app.pd;
    attr.vsend_cq = app.cq;
    attr.vrecv_cq = app.cq;
    attr.vsrq = srq;
    attr.caps = {256, 256};
    return app.guest->create_qp(attr).value();
  }

  /// Connect a<->b (both MigrRDMA guests).
  void connect(App& a, VQpn qa, App& b, VQpn qb) {
    ASSERT_TRUE(a.guest->connect_qp(qa, b.guest->id(), qb, 111, 222).is_ok());
    ASSERT_TRUE(b.guest->connect_qp(qb, a.guest->id(), qa, 222, 111).is_ok());
  }

  std::optional<Cqe> poll_one(App& app, sim::DurationNs limit = sim::msec(100)) {
    Cqe cqe;
    const sim::TimeNs deadline = world_.loop().now() + limit;
    while (world_.loop().now() < deadline) {
      if (app.guest->poll_cq(app.cq, {&cqe, 1}) == 1) return cqe;
      world_.loop().run_until(world_.loop().now() + sim::usec(20));
    }
    return std::nullopt;
  }

  void run_for(sim::DurationNs d) { world_.loop().run_until(world_.loop().now() + d); }

  /// The application's poll loop on a parking task, the way MsgNode polls:
  /// it records when it first polled a completion. Its grid is its spawn
  /// time + k * kPoll.
  static constexpr sim::DurationNs kPoll = sim::usec(5);
  struct Poller {
    sim::TimeNs origin = 0;
    sim::TimeNs seen_at = -1;
    int ticks = 0;
  };
  void spawn_parking_poller(App& app, Poller& p) {
    p.origin = world_.loop().now();
    app.proc->spawn_task(kPoll, [this, &app, &p] {
      p.ticks++;
      Cqe cqe;
      if (app.guest->poll_cq(app.cq, {&cqe, 1}) <= 0) return false;
      if (p.seen_at < 0) p.seen_at = world_.loop().now();
      return true;
    });
  }
  /// The tick at or after `t` of a task on the grid `origin` + k * kPoll:
  /// where a poller that never parks first sees work that appeared at `t`.
  static sim::TimeNs grid_tick(sim::TimeNs origin, sim::TimeNs t) {
    return origin + (t - origin + kPoll - 1) / kPoll * kPoll;
  }

  /// a and b connected, a with one RECV posted; b's send() lands in it.
  struct RecvPair {
    App a, b;
    VQpn qa = 0, qb = 0;
    Buf sbuf;
  };
  RecvPair make_recv_pair() {
    RecvPair r;
    r.a = make_app(1, 10, "a");
    r.b = make_app(3, 20, "b");
    r.qa = make_qp(r.a);
    r.qb = make_qp(r.b);
    connect(r.a, r.qa, r.b, r.qb);
    Buf rbuf = make_buf(r.a, 4096);
    r.sbuf = make_buf(r.b, 4096);
    RecvWr rwr;
    rwr.sge = {{rbuf.addr, 4096, rbuf.mr.vlkey}};
    EXPECT_TRUE(r.a.guest->post_recv(r.qa, rwr).is_ok());
    return r;
  }
  /// b sends to a; returns when a's completion was pushed to its real CQ.
  sim::TimeNs send_to_a(RecvPair& r) {
    sim::TimeNs cqe_at = -1;
    r.a.guest->raw().watch_next_cqe([&] { cqe_at = world_.loop().now(); });
    SendWr wr;
    wr.opcode = WrOpcode::send;
    wr.sge = {{r.sbuf.addr, 64, r.sbuf.mr.vlkey}};
    EXPECT_TRUE(r.b.guest->post_send(r.qb, wr).is_ok());
    run_for(sim::msec(1));
    return cqe_at;
  }

  void write_u64(App& app, std::uint64_t addr, std::uint64_t v) {
    ASSERT_TRUE(app.proc->mem().write(addr, {reinterpret_cast<std::uint8_t*>(&v), 8}).is_ok());
  }
  std::uint64_t read_u64(App& app, std::uint64_t addr) {
    std::uint64_t v = 0;
    EXPECT_TRUE(app.proc->mem().read(addr, {reinterpret_cast<std::uint8_t*>(&v), 8}).is_ok());
    return v;
  }

  /// Run one full migration and return the report. Rebinds `app.proc` to
  /// the destination process, the way a restored application transparently
  /// finds itself in the new container.
  MigrationReport migrate(App& app, net::HostId dest, MigratableApp* mapp = nullptr,
                          MigrationOptions opts = {}) {
    auto& dest_proc = world_.add_process("dest-proc");
    MigrationController ctl(world_.loop(), world_.fabric(), directory_, opts);
    MigrationReport out;
    bool done = false;
    EXPECT_TRUE(ctl.start(app.guest->id(), dest, dest_proc, mapp,
                          [&](const MigrationReport& r) {
                            out = r;
                            done = true;
                          })
                    .is_ok());
    const sim::TimeNs deadline = world_.loop().now() + sim::sec(30);
    while (!done && world_.loop().now() < deadline) {
      world_.loop().run_until(world_.loop().now() + sim::msec(1));
    }
    EXPECT_TRUE(done) << "migration did not finish";
    if (done && out.ok) app.proc = &dest_proc;
    return out;
  }

  rnic::World world_;
  GuestDirectory directory_;
  std::unordered_map<net::HostId, rnic::Device*> devices_;
  std::unordered_map<net::HostId, std::unique_ptr<MigrRdmaRuntime>> runtimes_;
};

// ---------------------------------------------------------------------------
// Virtualization layer
// ---------------------------------------------------------------------------

TEST_F(MigrTest, VirtualKeysAreDense) {
  App a = make_app(1, 10, "a");
  Buf b1 = make_buf(a, 4096);
  Buf b2 = make_buf(a, 4096);
  Buf b3 = make_buf(a, 4096);
  EXPECT_EQ(b1.mr.vlkey, 1u);
  EXPECT_EQ(b2.mr.vlkey, 2u);
  EXPECT_EQ(b3.mr.vlkey, 3u);
  EXPECT_EQ(b1.mr.vrkey, 1u);
  EXPECT_EQ(b2.mr.vrkey, 2u);
}

TEST_F(MigrTest, VirtualQpnEqualsPhysicalAtCreation) {
  App a = make_app(1, 10, "a");
  VQpn vqpn = make_qp(a);
  EXPECT_EQ(a.guest->physical_qpn(vqpn).value(), vqpn);
}

TEST_F(MigrTest, SendRecvThroughVirtualizationLayer) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf sbuf = make_buf(a, 4096);
  Buf rbuf = make_buf(b, 4096);
  write_u64(a, sbuf.addr, 0xFEEDBEEF);

  RecvWr rwr;
  rwr.wr_id = 7;
  rwr.sge = {{rbuf.addr, 4096, rbuf.mr.vlkey}};
  ASSERT_TRUE(b.guest->post_recv(qb, rwr).is_ok());

  SendWr swr;
  swr.wr_id = 8;
  swr.opcode = WrOpcode::send;
  swr.sge = {{sbuf.addr, 64, sbuf.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, swr).is_ok());

  auto scqe = poll_one(a);
  ASSERT_TRUE(scqe.has_value());
  EXPECT_EQ(scqe->wr_id, 8u);
  EXPECT_EQ(scqe->qpn, qa);  // virtual QPN in the CQE
  auto rcqe = poll_one(b);
  ASSERT_TRUE(rcqe.has_value());
  EXPECT_EQ(rcqe->wr_id, 7u);
  EXPECT_EQ(rcqe->qpn, qb);
  EXPECT_EQ(read_u64(b, rbuf.addr), 0xFEEDBEEFu);
}

TEST_F(MigrTest, OneSidedWriteWithRkeyFetchAndCache) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 4096);
  Buf dst = make_buf(b, 4096);
  write_u64(a, src.addr, 42);

  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.vrkey;  // the VIRTUAL rkey, as exchanged out of band
  wr.sge = {{src.addr, 8, src.mr.vlkey}};
  const auto fetches_before = runtimes_[1]->stats().rkey_fetches;
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());
  EXPECT_EQ(read_u64(b, dst.addr), 42u);
  EXPECT_EQ(runtimes_[1]->stats().rkey_fetches, fetches_before + 1);

  // Second write: cache hit, no fetch.
  write_u64(a, src.addr, 43);
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());
  EXPECT_EQ(runtimes_[1]->stats().rkey_fetches, fetches_before + 1);
  EXPECT_GT(runtimes_[1]->stats().rkey_cache_hits, 0u);
  EXPECT_EQ(read_u64(b, dst.addr), 43u);
}

TEST_F(MigrTest, ReadAndAtomicThroughVirtualization) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf local = make_buf(a, 4096);
  Buf remote = make_buf(b, 4096);
  write_u64(b, remote.addr, 777);

  SendWr rd;
  rd.opcode = WrOpcode::rdma_read;
  rd.remote_addr = remote.addr;
  rd.rkey = remote.mr.vrkey;
  rd.sge = {{local.addr, 8, local.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, rd).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());
  EXPECT_EQ(read_u64(a, local.addr), 777u);

  SendWr faa;
  faa.opcode = WrOpcode::atomic_fetch_and_add;
  faa.remote_addr = remote.addr;
  faa.rkey = remote.mr.vrkey;
  faa.compare_add = 3;
  faa.sge = {{local.addr, 8, local.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, faa).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());
  EXPECT_EQ(read_u64(b, remote.addr), 780u);
}

TEST_F(MigrTest, HybridRawPeerExcludesVirtualization) {
  // Peer uses the plain rnic verbs, no MigrRDMA library.
  App a = make_app(1, 10, "a");
  auto& raw_proc = world_.add_process("raw");
  rnic::Context* raw_ctx = devices_[3]->open(raw_proc).value();
  auto raw_pd = raw_ctx->alloc_pd().value();
  auto raw_cq = raw_ctx->create_cq(256).value();
  auto raw_qpn = raw_ctx->create_qp({rnic::QpType::rc, raw_pd, raw_cq, raw_cq, 0, {}}).value();
  auto raw_va = raw_proc.mem().mmap(4096, "raw_buf").value();
  auto raw_mr = raw_ctx->reg_mr(raw_pd, raw_va, 4096,
                                rnic::kAccessLocalWrite | rnic::kAccessRemoteWrite)
                    .value();

  VQpn qa = make_qp(a);
  // Negotiation: peer does not support MigrRDMA.
  EXPECT_FALSE(runtimes_[1]->peer_supports_migrrdma(999));
  ASSERT_TRUE(a.guest->connect_qp_raw(qa, 3, raw_qpn, 11, 22).is_ok());
  ASSERT_TRUE(raw_ctx->modify_qp_init(raw_qpn).is_ok());
  ASSERT_TRUE(raw_ctx->modify_qp_rtr(raw_qpn, 1, a.guest->physical_qpn(qa).value(), 11).is_ok());
  ASSERT_TRUE(raw_ctx->modify_qp_rts(raw_qpn, 22).is_ok());

  Buf src = make_buf(a, 4096);
  write_u64(a, src.addr, 0xAB);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = raw_va;
  wr.rkey = raw_mr.rkey;  // the RAW physical rkey — no translation
  wr.sge = {{src.addr, 8, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());
  std::uint64_t v = 0;
  ASSERT_TRUE(raw_proc.mem().read(raw_va, {reinterpret_cast<std::uint8_t*>(&v), 8}).is_ok());
  EXPECT_EQ(v, 0xABu);
}

// ---------------------------------------------------------------------------
// Suspension & wait-before-stop
// ---------------------------------------------------------------------------

TEST_F(MigrTest, SuspendInterceptsPostsAndWbsDrains) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 1 << 20);
  Buf dst = make_buf(b, 1 << 20);

  // Fill the pipe with large writes, then suspend immediately.
  for (int i = 0; i < 8; ++i) {
    SendWr wr;
    wr.wr_id = 100 + static_cast<std::uint64_t>(i);
    wr.opcode = WrOpcode::rdma_write;
    wr.remote_addr = dst.addr;
    wr.rkey = dst.mr.vrkey;
    wr.sge = {{src.addr, 256 * 1024, src.mr.vlkey}};
    ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  }
  bool a_done = false, b_done = false;
  a.guest->set_wbs_done_callback([&] { a_done = true; });
  b.guest->set_wbs_done_callback([&] { b_done = true; });
  a.guest->suspend(SuspendScope{true, 0});
  b.guest->suspend(SuspendScope{false, 10});
  EXPECT_TRUE(a.guest->qp_suspended(qa));
  EXPECT_TRUE(b.guest->qp_suspended(qb));

  // Posts during suspension are intercepted: accepted but not on the wire.
  SendWr late;
  late.wr_id = 999;
  late.opcode = WrOpcode::rdma_write;
  late.remote_addr = dst.addr;
  late.rkey = dst.mr.vrkey;
  late.sge = {{src.addr, 64, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, late).is_ok());

  // WBS completes once the 8 big writes are acked (2 MiB at 100 Gbps
  // ≈ 170 us); the intercepted one must NOT hold it up.
  run_for(sim::msec(10));
  EXPECT_TRUE(a_done);
  EXPECT_TRUE(b_done);
  EXPECT_TRUE(a.guest->wbs_done());

  // The 8 completions were parked in the fake CQ by the WBS thread and the
  // application still consumes them, translated, in order.
  for (int i = 0; i < 8; ++i) {
    auto cqe = poll_one(a);
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->wr_id, 100u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(cqe->qpn, qa);
  }
  // No completion for the intercepted WR yet.
  Cqe none;
  EXPECT_EQ(a.guest->poll_cq(a.cq, {&none, 1}), 0);
}

TEST_F(MigrTest, WbsWaitsForPeerSends) {
  // Peer posted sends; our side must not finish WBS until its RECVs match
  // the peer's n_sent.
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf sbuf = make_buf(b, 4096);
  Buf rbuf = make_buf(a, 4096);

  // b sends 2 messages; a has only 1 RECV posted -> one message stalls in
  // RNR retry until the second RECV appears.
  RecvWr rwr;
  rwr.sge = {{rbuf.addr, 1024, rbuf.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_recv(qa, rwr).is_ok());
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sbuf.addr, 64, sbuf.mr.vlkey}};
    ASSERT_TRUE(b.guest->post_send(qb, wr).is_ok());
  }
  run_for(sim::usec(200));

  bool a_done = false;
  a.guest->set_wbs_done_callback([&] { a_done = true; });
  a.guest->suspend(SuspendScope{true, 0});
  b.guest->suspend(SuspendScope{false, 10});
  run_for(sim::msec(2));
  EXPECT_FALSE(a_done) << "WBS must wait for the peer's second send";

  // Post the missing RECV (intercepted, but the NIC-level retry needs a
  // real RQ entry — the intercepted RECV is replayed only at restore; the
  // peer's send can only complete after migration replays it). For the
  // purpose of WBS, this is the buggy-network case: resolve via timeout.
  a.guest->force_wbs_timeout();
  b.guest->force_wbs_timeout();
  EXPECT_TRUE(a.guest->wbs_done());
}

// ---------------------------------------------------------------------------
// Dump / image round trip
// ---------------------------------------------------------------------------

TEST_F(MigrTest, RdmaImageRoundTrip) {
  App a = make_app(1, 10, "a");
  Buf b1 = make_buf(a, 8192);
  VHandle ch = a.guest->create_comp_channel().value();
  VHandle evcq = a.guest->create_cq(128, ch).value();
  (void)evcq;
  VHandle srq = a.guest->create_srq(a.pd, 128).value();
  VQpn q1 = make_qp(a);
  VQpn q2 = make_qp(a, srq);
  (void)q2;
  auto dm = a.guest->alloc_dm(8192).value();
  (void)dm;

  RdmaImage img = a.guest->dump(false);
  auto parsed = RdmaImage::parse(img.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->pds.size(), 1u);
  EXPECT_EQ(parsed->cqs.size(), 2u);
  EXPECT_EQ(parsed->channels.size(), 1u);
  EXPECT_EQ(parsed->srqs.size(), 1u);
  EXPECT_EQ(parsed->mrs.size(), 1u);
  EXPECT_EQ(parsed->dms.size(), 1u);
  EXPECT_EQ(parsed->qps.size(), 2u);
  EXPECT_EQ(parsed->mrs[0].vlkey, b1.mr.vlkey);
  EXPECT_EQ(parsed->qps.size(), 2u);
  const bool has_q1 = parsed->qps[0].vqpn == q1 || parsed->qps[1].vqpn == q1;
  EXPECT_TRUE(has_q1);
}

TEST_F(MigrTest, FinalDumpIsDiff) {
  App a = make_app(1, 10, "a");
  make_buf(a, 4096);
  RdmaImage pre = a.guest->dump(false);
  EXPECT_EQ(pre.mrs.size(), 1u);
  // Register another MR after the pre-dump.
  make_buf(a, 4096);
  RdmaImage diff = a.guest->dump(true);
  EXPECT_TRUE(diff.final);
  EXPECT_EQ(diff.mrs.size(), 1u);  // only the new MR
  EXPECT_TRUE(diff.pds.empty());
}

TEST_F(MigrTest, PinnedVmaStartsFindMrAndShadowVmas) {
  App a = make_app(1, 10, "a");
  Buf b = make_buf(a, 8192);
  make_qp(a);
  RdmaImage rdma = a.guest->dump(false);
  criu::Checkpointer ckpt(*a.proc);
  auto d = ckpt.pre_dump();
  auto pinned = Plugin::pinned_vma_starts(d.image, rdma);
  EXPECT_TRUE(pinned.contains(b.addr));
  // The QP's driver queue mapping is pinned too.
  bool has_shadow = false;
  for (const auto& vma : d.image.vmas) {
    if (vma.tag == "qp_shadow" && pinned.contains(vma.start)) has_shadow = true;
  }
  EXPECT_TRUE(has_shadow);
}

// ---------------------------------------------------------------------------
// Full migrations
// ---------------------------------------------------------------------------

TEST_F(MigrTest, MigrationMovesGuestAndKeepsOneSidedTrafficWorking) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 1 << 16);
  Buf dst = make_buf(b, 1 << 16);

  // Pre-migration traffic (also warms b's rkey cache towards a).
  write_u64(a, src.addr, 1);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.vrkey;
  wr.sge = {{src.addr, 8, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());
  EXPECT_EQ(read_u64(b, dst.addr), 1u);

  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(directory_.locate(10), 2u);
  EXPECT_EQ(runtimes_[2]->find_guest(10), a.guest);
  EXPECT_EQ(runtimes_[1]->find_guest(10), nullptr);
  // The physical QPN changed; the virtual one did not.
  EXPECT_NE(a.guest->physical_qpn(qa).value(), qa);

  // Same virtual handles keep working from the new host.
  write_u64(a, src.addr, 2);
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  auto cqe = poll_one(a, sim::msec(200));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::success);
  EXPECT_EQ(cqe->qpn, qa);
  EXPECT_EQ(read_u64(b, dst.addr), 2u);

  // And the partner direction: b writes to a's migrated memory (its cached
  // rkey was invalidated; refetch targets the new location).
  Buf bsrc = make_buf(b, 4096);
  write_u64(b, bsrc.addr, 3);
  SendWr bw;
  bw.opcode = WrOpcode::rdma_write;
  bw.remote_addr = src.addr;
  bw.rkey = src.mr.vrkey;
  bw.sge = {{bsrc.addr, 8, bsrc.mr.vlkey}};
  ASSERT_TRUE(b.guest->post_send(qb, bw).is_ok());
  ASSERT_TRUE(poll_one(b, sim::msec(200)).has_value());
  EXPECT_EQ(read_u64(a, src.addr), 3u);
}

TEST_F(MigrTest, MigrationPreservesMemoryContents) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf buf = make_buf(a, 64 * 1024);
  std::vector<std::uint8_t> pattern(64 * 1024);
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = static_cast<std::uint8_t>(i * 13);
  ASSERT_TRUE(a.proc->mem().write(buf.addr, pattern).is_ok());

  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;
  std::vector<std::uint8_t> out(pattern.size());
  ASSERT_TRUE(a.proc->mem().read(buf.addr, out).is_ok());
  EXPECT_EQ(out, pattern);
  EXPECT_GT(report.precopy_bytes, pattern.size());
}

TEST_F(MigrTest, SendRecvOrderingAcrossMigration) {
  // §5.3-style correctness: WR IDs complete in order, no dup/loss, across
  // a migration that interrupts an active send stream.
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf sbuf = make_buf(a, 256 * 1024);
  Buf rbuf = make_buf(b, 256 * 1024);

  // b posts plenty of RECVs.
  for (std::uint64_t i = 0; i < 64; ++i) {
    RecvWr rwr;
    rwr.wr_id = i;
    rwr.sge = {{rbuf.addr + i * 4096, 4096, rbuf.mr.vlkey}};
    ASSERT_TRUE(b.guest->post_recv(qb, rwr).is_ok());
  }
  // a streams sends with sequence numbers; the app keeps posting via a
  // poller (which freezes during stop-and-copy and resumes after).
  std::uint64_t next_send = 0;
  auto post_some = [&] {
    while (next_send < 64) {
      SendWr wr;
      wr.wr_id = next_send;
      std::vector<std::uint8_t> marker(8);
      std::memcpy(marker.data(), &next_send, 8);
      if (!a.proc->mem().write(sbuf.addr + next_send * 4096, marker).is_ok()) return;
      wr.opcode = WrOpcode::send;
      wr.sge = {{sbuf.addr + next_send * 4096, 4096, sbuf.mr.vlkey}};
      if (!a.guest->post_send(qa, wr).is_ok()) return;
      ++next_send;
      if (next_send % 8 == 0) return;  // trickle
    }
  };
  struct PollerApp : MigratableApp {
    std::function<void()> fn;
    sim::DurationNs period;
    void on_migrated(proc::SimProcess& p) override {
      p.spawn_poller(period, fn);
    }
  } poller_app;
  poller_app.fn = post_some;
  poller_app.period = sim::usec(50);
  a.proc->spawn_poller(sim::usec(50), post_some);

  run_for(sim::usec(400));  // some sends flow pre-migration
  auto report = migrate(a, 2, &poller_app);
  ASSERT_TRUE(report.ok) << report.error;
  run_for(sim::sec(1));  // let the stream finish

  // Receiver saw 0..63 in order, exactly once, contents intact.
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto cqe = poll_one(b, sim::msec(500));
    ASSERT_TRUE(cqe.has_value()) << "missing recv completion " << i;
    ASSERT_EQ(cqe->status, CqeStatus::success);
    ASSERT_EQ(cqe->wr_id, i) << "order violated";
    std::uint64_t marker = 0;
    ASSERT_TRUE(b.proc->mem()
                    .read(rbuf.addr + i * 4096, {reinterpret_cast<std::uint8_t*>(&marker), 8})
                    .is_ok());
    ASSERT_EQ(marker, i) << "content corrupted";
  }
  EXPECT_EQ(next_send, 64u);
}

TEST_F(MigrTest, MigrationWithoutPresetupAlsoCorrectButSlower) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 4096);
  Buf dst = make_buf(b, 4096);

  MigrationOptions with;
  with.pre_setup = true;
  auto rep_with = migrate(a, 2, nullptr, with);
  ASSERT_TRUE(rep_with.ok) << rep_with.error;

  // Traffic still works after the pre-setup migration.
  write_u64(a, src.addr, 9);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.vrkey;
  wr.sge = {{src.addr, 8, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  ASSERT_TRUE(poll_one(a, sim::msec(200)).has_value());
  EXPECT_EQ(read_u64(b, dst.addr), 9u);

  // Migrate back, without pre-setup: blackout must include RestoreRDMA.
  MigrationOptions without;
  without.pre_setup = false;
  auto rep_without = migrate(a, 1, nullptr, without);
  ASSERT_TRUE(rep_without.ok) << rep_without.error;
  EXPECT_GT(rep_without.restore_rdma, rep_with.restore_rdma);
  EXPECT_GT(rep_without.service_blackout(), rep_with.service_blackout());
  EXPECT_EQ(rep_with.presetup_restore_rdma > 0, true);
  EXPECT_EQ(rep_without.presetup_restore_rdma, 0);

  write_u64(a, src.addr, 10);
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  ASSERT_TRUE(poll_one(a, sim::msec(200)).has_value());
  EXPECT_EQ(read_u64(b, dst.addr), 10u);
}

TEST_F(MigrTest, PendingRecvsReplayedOnDestination) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf rbuf = make_buf(a, 8192);
  Buf sbuf = make_buf(b, 8192);

  // a posts RECVs that nobody matches yet.
  for (std::uint64_t i = 0; i < 2; ++i) {
    RecvWr rwr;
    rwr.wr_id = 40 + i;
    rwr.sge = {{rbuf.addr + i * 4096, 4096, rbuf.mr.vlkey}};
    ASSERT_TRUE(a.guest->post_recv(qa, rwr).is_ok());
  }
  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;

  // After migration, b sends; the replayed RECVs must match, in order.
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sbuf.addr, 128, sbuf.mr.vlkey}};
    ASSERT_TRUE(b.guest->post_send(qb, wr).is_ok());
  }
  auto c1 = poll_one(a, sim::msec(200));
  auto c2 = poll_one(a, sim::msec(200));
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c1->wr_id, 40u);
  EXPECT_EQ(c2->wr_id, 41u);
}

TEST_F(MigrTest, ResourcefulGuestMigratesWithSrqDmMw) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VHandle srq = a.guest->create_srq(a.pd, 64).value();
  VQpn qa = make_qp(a, srq);
  VQpn qb = make_qp(b);
  connect(a, qa, b, qb);

  auto dm = a.guest->alloc_dm(8192).value();
  auto dm_mr = a.guest->reg_mr(a.pd, dm.mapped_at, 8192, rnic::kAccessLocalWrite).value();
  (void)dm_mr;
  Buf big = make_buf(a, 16384,
                     rnic::kAccessLocalWrite | rnic::kAccessRemoteWrite | rnic::kAccessMwBind);
  VHandle vmw = a.guest->bind_mw_alloc(a.pd).value();
  auto mw_vrkey = a.guest->bind_mw(qa, vmw, big.mr.vlkey, big.addr + 4096, 4096,
                                   rnic::kAccessRemoteWrite, 1);
  ASSERT_TRUE(mw_vrkey.is_ok());
  ASSERT_TRUE(poll_one(a).has_value());  // bind completion

  // Put recognizable content into the on-chip memory mapping.
  write_u64(a, dm.mapped_at, 0xD00D);

  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;

  // DM content survived (restored via the memory path + remap).
  EXPECT_EQ(read_u64(a, dm.mapped_at), 0xD00Du);

  // The MW still guards its window: b writes through the (stable) virtual
  // rkey of the MW; the fetch resolves to the rebound physical rkey.
  Buf bsrc = make_buf(b, 4096);
  write_u64(b, bsrc.addr, 0xCAFE);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = big.addr + 4096;
  wr.rkey = mw_vrkey.value();
  wr.sge = {{bsrc.addr, 8, bsrc.mr.vlkey}};
  ASSERT_TRUE(b.guest->post_send(qb, wr).is_ok());
  auto cqe = poll_one(b, sim::msec(200));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::success);
  EXPECT_EQ(read_u64(a, big.addr + 4096), 0xCAFEu);
}

TEST_F(MigrTest, MrRegisteredDuringPrecopyIsRestoredLate) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  // A big buffer stretches the pre-copy phase (dump + transfer of 64 MiB
  // takes several milliseconds) so the late registration really lands
  // inside pre-copy.
  make_buf(a, 64 << 20);

  // Start the migration; register a fresh MR while pre-copy is in flight.
  auto& dest_proc = world_.add_process("dest");
  MigrationController ctl(world_.loop(), world_.fabric(), directory_);
  MigrationReport report;
  bool done = false;
  ASSERT_TRUE(ctl.start(10, 2, dest_proc, nullptr, [&](const MigrationReport& r) {
                   report = r;
                   done = true;
                 })
                  .is_ok());
  run_for(sim::msec(2));  // into pre-copy
  ASSERT_FALSE(done);
  ASSERT_EQ(directory_.locate(10), 1u) << "must still be on the source";
  Buf late = make_buf(a, 4096);
  write_u64(a, late.addr, 0x1A7E);
  while (!done) run_for(sim::msec(1));
  ASSERT_TRUE(report.ok) << report.error;
  a.proc = &dest_proc;  // the app now lives in the destination container
  EXPECT_EQ(read_u64(a, late.addr), 0x1A7Eu) << "late MR content migrated";

  // The late MR works from the destination: b writes through its vrkey.
  Buf bsrc = make_buf(b, 4096);
  write_u64(b, bsrc.addr, 0x77);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = late.addr;
  wr.rkey = late.mr.vrkey;
  wr.sge = {{bsrc.addr, 8, bsrc.mr.vlkey}};
  ASSERT_TRUE(b.guest->post_send(qb, wr).is_ok());
  auto cqe = poll_one(b, sim::msec(200));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::success);
  EXPECT_EQ(read_u64(a, late.addr), 0x77u);
}

TEST_F(MigrTest, InterceptedSendsFlushAfterRestore) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 4096);
  Buf dst = make_buf(b, 4096);

  // Run a migration with continuous background traffic (so the WBS window
  // has inflight WRs and real duration); during the window, post more sends
  // — they get intercepted.
  Buf big = make_buf(a, 1 << 20);
  Buf bigdst = make_buf(b, 1 << 20);
  int posted_during_suspend = 0;
  a.proc->spawn_poller(sim::usec(2), [&] {
    if (!a.guest->suspended()) {
      // Keep the pipe moderately full, perftest-style.
      SendWr fill;
      fill.wr_id = 1;
      fill.signaled = false;
      fill.opcode = WrOpcode::rdma_write;
      fill.remote_addr = bigdst.addr;
      fill.rkey = bigdst.mr.vrkey;
      fill.sge = {{big.addr, 1 << 18, big.mr.vlkey}};
      (void)a.guest->post_send(qa, fill);
      return;
    }
    if (a.guest->suspended() && posted_during_suspend < 3) {
      write_u64(a, src.addr, 0x5000 + static_cast<std::uint64_t>(posted_during_suspend));
      SendWr wr;
      wr.wr_id = 500 + static_cast<std::uint64_t>(posted_during_suspend);
      wr.opcode = WrOpcode::rdma_write;
      wr.remote_addr = dst.addr + 8 * static_cast<std::uint64_t>(posted_during_suspend);
      wr.rkey = dst.mr.vrkey;
      wr.sge = {{src.addr, 8, src.mr.vlkey}};
      if (a.guest->post_send(qa, wr).is_ok()) posted_during_suspend++;
    }
  });
  // NB: the poller freezes with the process at stop-and-copy, so all posts
  // happen during the WBS window (suspension active, process running).
  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(posted_during_suspend, 0);
  run_for(sim::msec(5));

  // The intercepted writes executed after restore: completions + data.
  for (int i = 0; i < posted_during_suspend; ++i) {
    auto cqe = poll_one(a, sim::msec(200));
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->wr_id, 500u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(cqe->status, CqeStatus::success);
  }
}

TEST_F(MigrTest, FailurePastCommitReleasesPartnersHeldSends) {
  // Past the commit point a partner switches to its replacement QP and holds
  // its sends to the guest until the guest resumes. If the migration fails
  // there instead, the guest never resumes: the partner must not go on
  // swallowing its sends.
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf sbuf = make_buf(b, 4096);

  auto& dest_proc = world_.add_process("dest-proc");
  MigrationController ctl(world_.loop(), world_.fabric(), directory_);
  MigrationReport rep;
  bool done = false;
  ASSERT_TRUE(ctl.start(10, 2, dest_proc, nullptr, [&](const MigrationReport& r) {
                   rep = r;
                   done = true;
                 })
                  .is_ok());
  // While b is suspended it intercepts a RECV with a key it never
  // registered; re-posting it fails b's switch, after the hold was set.
  while (!done && !a.proc->frozen()) run_for(sim::usec(1));
  ASSERT_FALSE(done);
  ASSERT_TRUE(b.guest->suspended());
  RecvWr bad;
  bad.sge = {{sbuf.addr, 64, /*lkey=*/999}};
  ASSERT_TRUE(b.guest->post_recv(qb, bad).is_ok());
  const sim::TimeNs deadline = world_.loop().now() + sim::sec(5);
  while (!done && world_.loop().now() < deadline) run_for(sim::msec(1));
  ASSERT_TRUE(done);
  ASSERT_FALSE(rep.ok);
  EXPECT_FALSE(rep.aborted);  // past the commit point: no rollback

  // b's send goes on the wire instead of into the hold.
  SendWr swr;
  swr.opcode = WrOpcode::send;
  swr.sge = {{sbuf.addr, 64, sbuf.mr.vlkey}};
  const std::uint64_t tx_before = devices_[3]->counters().tx_packets;
  ASSERT_TRUE(b.guest->post_send(qb, swr).is_ok());
  run_for(sim::msec(1));
  EXPECT_GT(devices_[3]->counters().tx_packets, tx_before);
}

TEST_F(MigrTest, MigrateBothEndpointsSequentially) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 4096);
  Buf dst = make_buf(b, 4096);

  auto r1 = migrate(a, 2);
  ASSERT_TRUE(r1.ok) << r1.error;
  auto r2 = migrate(b, 4);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(directory_.locate(10), 2u);
  EXPECT_EQ(directory_.locate(20), 4u);

  write_u64(a, src.addr, 0xF00D);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.vrkey;
  wr.sge = {{src.addr, 8, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  auto cqe = poll_one(a, sim::msec(500));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::success);
  EXPECT_EQ(read_u64(b, dst.addr), 0xF00Du);
}

TEST_F(MigrTest, WbsTimeoutPathReplaysIncompleteWrs) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  Buf src = make_buf(a, 1 << 16);
  Buf dst = make_buf(b, 1 << 16);

  // Warm the rkey cache so the replay can un-translate.
  write_u64(a, src.addr, 1);
  SendWr warm;
  warm.opcode = WrOpcode::rdma_write;
  warm.remote_addr = dst.addr;
  warm.rkey = dst.mr.vrkey;
  warm.sge = {{src.addr, 8, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, warm).is_ok());
  ASSERT_TRUE(poll_one(a).has_value());

  // Break the data plane: posted writes can never complete.
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 1.0});
  write_u64(a, src.addr + 8, 0xEE);
  SendWr wr;
  wr.wr_id = 77;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr + 8;
  wr.rkey = dst.mr.vrkey;
  wr.sge = {{src.addr + 8, 8, src.mr.vlkey}};
  ASSERT_TRUE(a.guest->post_send(qa, wr).is_ok());
  run_for(sim::usec(100));

  // The timeout must fire before the RC retry budget (7 x 50 ms) moves
  // the QP to error — the paper's design point: don't wait for a spotty
  // network, replay after restore instead. The network heals once the
  // service lands on the destination, so the replayed WR can complete.
  auto healer = world_.loop().schedule_every(sim::usec(100), [&] {
    if (directory_.locate(10) == 2u) world_.fabric().set_faults(net::Faults{});
  });
  MigrationOptions opts;
  opts.wbs_timeout = sim::msec(1);
  auto report = migrate(a, 2, nullptr, opts);
  healer.cancel();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.wbs_timed_out);
  EXPECT_GE(report.wbs_elapsed, opts.wbs_timeout);
  auto cqe = poll_one(a, sim::msec(500));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 77u);
  EXPECT_EQ(cqe->status, CqeStatus::success);
  EXPECT_EQ(read_u64(b, dst.addr + 8), 0xEEu);
}

TEST_F(MigrTest, MigrationRefusedWithRawPeer) {
  // §6: a guest connected to a non-MigrRDMA endpoint cannot be migrated.
  App a = make_app(1, 10, "a");
  auto& raw_proc = world_.add_process("raw");
  rnic::Context* raw_ctx = devices_[3]->open(raw_proc).value();
  auto raw_pd = raw_ctx->alloc_pd().value();
  auto raw_cq = raw_ctx->create_cq(64).value();
  auto raw_qpn =
      raw_ctx->create_qp({rnic::QpType::rc, raw_pd, raw_cq, raw_cq, 0, {}}).value();
  VQpn qa = make_qp(a);
  ASSERT_TRUE(a.guest->connect_qp_raw(qa, 3, raw_qpn, 1, 2).is_ok());
  EXPECT_TRUE(a.guest->has_raw_peer());

  auto& dest_proc = world_.add_process("dest");
  MigrationController ctl(world_.loop(), world_.fabric(), directory_);
  auto st = ctl.start(10, 2, dest_proc, nullptr, [](const MigrationReport&) {});
  EXPECT_EQ(st.code(), Errc::failed_precondition);
}

TEST_F(MigrTest, BlackoutComponentsArePopulated) {
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a), qb = make_qp(b);
  connect(a, qa, b, qb);
  make_buf(a, 1 << 20);

  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.dump_others, 0);
  EXPECT_GT(report.transfer, 0);
  EXPECT_GT(report.full_restore, 0);
  EXPECT_GT(report.presetup_restore_rdma, 0);
  EXPECT_GT(report.service_blackout(), 0);
  EXPECT_GE(report.comm_blackout(), report.service_blackout());
  EXPECT_GE(report.freeze_at, report.suspend_at);
  EXPECT_GE(report.resume_at, report.freeze_at);
}

// ---------------------------------------------------------------------------
// Parked pollers (DESIGN.md §10): each wake source re-arms a parked poller
// so that it sees its work on its next grid tick. Work appears off the grid
// in each test, so a poller that never parked would see it on that tick too.
// (EventLoopCore.WakeOnAGridTickRunsAfterTheWakingEvent covers on-grid.)
// ---------------------------------------------------------------------------

TEST_F(MigrTest, CqePushWakesParkedPoller) {
  RecvPair r = make_recv_pair();
  run_for(sim::usec(2));
  Poller p;
  spawn_parking_poller(r.a, p);
  run_for(sim::msec(1));
  ASSERT_EQ(p.ticks, 1);  // found nothing and parked

  const sim::TimeNs cqe_at = send_to_a(r);
  ASSERT_GT(cqe_at, 0);
  ASSERT_NE((cqe_at - p.origin) % kPoll, 0);
  EXPECT_EQ(p.seen_at, grid_tick(p.origin, cqe_at));
}

TEST_F(MigrTest, FakeCqPushWakesParkedPoller) {
  // While a is suspended toward b only its WBS thread polls the real CQ,
  // moving completions to the fake CQ the application polls. The app's
  // grid runs 1 ns ahead of the WBS thread's (a's creation time, 0): the
  // completion's own wake finds the fake CQ still empty, and only the
  // fake-CQ push brings the app back.
  RecvPair r = make_recv_pair();
  world_.loop().run_until(kPoll - 1);
  Poller p;
  spawn_parking_poller(r.a, p);
  run_for(sim::msec(1));
  ASSERT_EQ(p.ticks, 1);

  r.a.guest->suspend(SuspendScope{false, r.b.guest->id()});
  const sim::TimeNs cqe_at = send_to_a(r);
  ASSERT_GT(cqe_at, 0);
  ASSERT_NE(cqe_at % kPoll, 0);
  ASSERT_NE((cqe_at - p.origin) % kPoll, 0);
  const sim::TimeNs drained_at = grid_tick(0, cqe_at);  // the WBS thread's tick
  EXPECT_EQ(p.seen_at, grid_tick(p.origin, drained_at));
  EXPECT_TRUE(r.a.guest->abort_suspension().is_ok());
}

TEST_F(MigrTest, SuspensionLiftWakesParkedPoller) {
  // A completion that lands after the WBS thread finished stays on the real
  // CQ, hidden from the application until the suspension lifts.
  RecvPair r = make_recv_pair();
  run_for(sim::usec(2));
  Poller p;
  spawn_parking_poller(r.a, p);
  r.a.guest->suspend(SuspendScope{true, 0});
  r.a.guest->deliver_peer_n_sent(r.qa, 0);  // b sent nothing yet
  run_for(sim::msec(1));
  ASSERT_TRUE(r.a.guest->wbs_done());

  ASSERT_GT(send_to_a(r), 0);
  ASSERT_EQ(p.seen_at, -1);
  const sim::TimeNs lift_at = world_.loop().now() + 1234;
  ASSERT_NE((lift_at - p.origin) % kPoll, 0);
  world_.loop().schedule_at(lift_at, [&] { EXPECT_TRUE(r.a.guest->abort_suspension().is_ok()); });
  run_for(sim::msec(1));
  EXPECT_EQ(p.seen_at, grid_tick(p.origin, lift_at));
}

TEST_F(MigrTest, ThawWakesParkedPoller) {
  // A completion that lands while the process is frozen waits for the thaw.
  RecvPair r = make_recv_pair();
  run_for(sim::usec(2));
  Poller p;
  spawn_parking_poller(r.a, p);
  run_for(sim::msec(1));
  r.a.proc->freeze();
  ASSERT_GT(send_to_a(r), 0);
  ASSERT_EQ(p.seen_at, -1);
  const sim::TimeNs thaw_at = world_.loop().now() + 1234;
  ASSERT_NE((thaw_at - p.origin) % kPoll, 0);
  world_.loop().schedule_at(thaw_at, [&] { r.a.proc->thaw(); });
  run_for(sim::msec(1));
  EXPECT_EQ(p.seen_at, grid_tick(p.origin, thaw_at));
}

TEST_F(MigrTest, SuspendWakesParkedWbsThread) {
  // An unconnected QP leaves nothing to wait for: the WBS thread finishes on
  // its first tick after suspend(). Its grid is a's creation time, 0.
  App a = make_app(1, 10, "a");
  make_qp(a);
  run_for(sim::msec(1));
  sim::TimeNs done_at = -1;
  a.guest->set_wbs_done_callback([&] { done_at = world_.loop().now(); });
  const sim::TimeNs suspend_at = world_.loop().now() + 1234;
  world_.loop().schedule_at(suspend_at, [&] { a.guest->suspend(SuspendScope{true, 0}); });
  run_for(sim::msec(1));
  EXPECT_EQ(done_at, grid_tick(0, suspend_at));
}

TEST_F(MigrTest, InterceptedBacklogWakesParkedWbsThread) {
  // b's sends to a wait out a's migration in the library. At a's resume they
  // flush into b's one-slot send queue: one posts and the parked WBS thread
  // must post each of the rest on its first grid tick (b's creation time,
  // 0, + k * kPoll) after the completion that freed the slot.
  App a = make_app(1, 10, "a");
  App b = make_app(3, 20, "b");
  VQpn qa = make_qp(a);
  GuestQpAttr attr;
  attr.vpd = b.pd;
  attr.vsend_cq = b.cq;
  attr.vrecv_cq = b.cq;
  attr.caps = {1, 16};
  VQpn qb = b.guest->create_qp(attr).value();
  connect(a, qa, b, qb);
  Buf rbuf = make_buf(a, 16 * 64);
  Buf sbuf = make_buf(b, 4096);
  for (std::uint64_t i = 0; i < 16; ++i) {
    RecvWr rwr;
    rwr.sge = {{rbuf.addr + i * 64, 64, rbuf.mr.vlkey}};
    ASSERT_TRUE(a.guest->post_recv(qa, rwr).is_ok());
  }
  constexpr std::uint64_t kBacklog = 8;
  std::uint64_t posted = 0;
  b.proc->spawn_poller(sim::usec(1), [&] {
    while (b.guest->suspended() && posted < kBacklog) {
      SendWr wr;
      wr.wr_id = posted++;
      wr.opcode = WrOpcode::send;
      wr.sge = {{sbuf.addr, 64, sbuf.mr.vlkey}};
      EXPECT_TRUE(b.guest->post_send(qb, wr).is_ok());
    }
  });
  // Only b's sends complete at b.
  std::vector<sim::TimeNs> completions;
  std::function<void()> watch = [&] {
    completions.push_back(world_.loop().now());
    b.guest->raw().watch_next_cqe(watch);
  };
  b.guest->raw().watch_next_cqe(watch);
  // b's send count on its current physical QP, 1 ns after each WBS tick:
  // post_ticks[k] is the tick that posted the (k+1)-th send on it.
  std::vector<sim::TimeNs> post_ticks;
  rnic::Qpn sampled_qpn = 0;
  auto sampler = world_.loop().schedule_every(
      kPoll,
      [&] {
        const rnic::Qpn pqpn = b.guest->physical_qpn(qb).value();
        if (pqpn != sampled_qpn) {
          sampled_qpn = pqpn;
          post_ticks.clear();
        }
        const rnic::Qp* q = b.guest->raw().find_qp(pqpn);
        while (q != nullptr && post_ticks.size() < q->n_sent) {
          post_ticks.push_back(world_.loop().now() - 1);
        }
      },
      kPoll + 1);

  auto report = migrate(a, 2);
  ASSERT_TRUE(report.ok) << report.error;
  run_for(sim::msec(1));
  sampler.cancel();
  ASSERT_EQ(posted, kBacklog);
  ASSERT_EQ(completions.size(), kBacklog);
  ASSERT_EQ(post_ticks.size(), kBacklog);
  // The first send posted at the resume itself; each later one waited for a
  // slot and the WBS thread's next tick.
  EXPECT_GE(completions.front(), report.resume_at);
  for (std::size_t k = 1; k < kBacklog; ++k) {
    ASSERT_NE(completions[k - 1] % kPoll, 0);
    EXPECT_EQ(post_ticks[k], grid_tick(0, completions[k - 1])) << "send " << k;
  }
}

}  // namespace
}  // namespace migr::migrlib
