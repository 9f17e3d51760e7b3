// Focused unit tests for the MigrRDMA guest library: completion-channel
// event accounting (§3.4 "consistency of CQ events"), UD virtualization,
// resource lifecycle/pruning, fake-CQ ordering, and translation-table
// behaviour that the integration tests exercise only incidentally.
#include <gtest/gtest.h>

#include "migr/guest_lib.hpp"
#include "migr/migration.hpp"
#include "rnic/world.hpp"

namespace migr::migrlib {
namespace {

using common::Errc;
using rnic::Cqe;
using rnic::CqeStatus;
using rnic::RecvWr;
using rnic::SendWr;
using rnic::WrOpcode;

class GuestTest : public ::testing::Test {
 protected:
  GuestTest() {
    for (net::HostId h = 1; h <= 3; ++h) {
      devices_[h] = &world_.add_device(h);
      runtimes_[h] =
          std::make_unique<MigrRdmaRuntime>(directory_, *devices_[h], world_.fabric());
    }
    a_ = runtimes_[1]->create_guest(world_.add_process("a"), 10).value();
    b_ = runtimes_[3]->create_guest(world_.add_process("b"), 20).value();
    pd_a_ = a_->alloc_pd().value();
    pd_b_ = b_->alloc_pd().value();
    cq_a_ = a_->create_cq(512).value();
    cq_b_ = b_->create_cq(512).value();
  }

  VQpn qp(GuestContext* g, VHandle pd, VHandle cq, rnic::QpType type = rnic::QpType::rc) {
    GuestQpAttr attr;
    attr.type = type;
    attr.vpd = pd;
    attr.vsend_cq = cq;
    attr.vrecv_cq = cq;
    return g->create_qp(attr).value();
  }

  struct Buf {
    std::uint64_t addr;
    VMr mr;
  };
  Buf buf(GuestContext* g, VHandle pd, std::uint64_t size) {
    Buf b;
    b.addr = g->process().mem().mmap(size, "buf").value();
    b.mr = g->reg_mr(pd, b.addr, size,
                     rnic::kAccessLocalWrite | rnic::kAccessRemoteWrite |
                         rnic::kAccessRemoteRead)
               .value();
    return b;
  }

  void connect(VQpn qa, VQpn qb) {
    ASSERT_TRUE(a_->connect_qp(qa, 20, qb, 1, 2).is_ok());
    ASSERT_TRUE(b_->connect_qp(qb, 10, qa, 2, 1).is_ok());
  }

  void run_for(sim::DurationNs d) { world_.loop().run_until(world_.loop().now() + d); }

  rnic::World world_;
  GuestDirectory directory_;
  std::unordered_map<net::HostId, rnic::Device*> devices_;
  std::unordered_map<net::HostId, std::unique_ptr<MigrRdmaRuntime>> runtimes_;
  GuestContext* a_ = nullptr;
  GuestContext* b_ = nullptr;
  VHandle pd_a_ = 0, pd_b_ = 0, cq_a_ = 0, cq_b_ = 0;
};

// ---------------------------------------------------------------------------
// Lifecycle / bookkeeping
// ---------------------------------------------------------------------------

TEST_F(GuestTest, DeregPrunesRoadmapAndInvalidatesVlkey) {
  Buf b1 = buf(a_, pd_a_, 4096);
  ASSERT_TRUE(a_->dereg_mr(b1.mr.vlkey).is_ok());
  // The creation roadmap no longer contains the MR (§3.2 deletion pruning).
  RdmaImage img = a_->dump(false);
  EXPECT_TRUE(img.mrs.empty());
  // The dense slot is invalid: posting with the stale vlkey fails cleanly.
  VQpn q = qp(a_, pd_a_, cq_a_);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  connect(q, qb);
  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{b1.addr, 64, b1.mr.vlkey}};
  EXPECT_EQ(a_->post_send(q, wr).code(), Errc::permission_denied);
}

TEST_F(GuestTest, VlkeysKeepGrowingAfterDereg) {
  Buf b1 = buf(a_, pd_a_, 4096);
  ASSERT_TRUE(a_->dereg_mr(b1.mr.vlkey).is_ok());
  Buf b2 = buf(a_, pd_a_, 4096);
  // No reuse of freed virtual keys (keeps translation unambiguous).
  EXPECT_GT(b2.mr.vlkey, b1.mr.vlkey);
}

TEST_F(GuestTest, DestroyQpRemovesShadowVmaAndRoadmapEntry) {
  VQpn q = qp(a_, pd_a_, cq_a_);
  std::size_t shadows = 0;
  for (const auto& vma : a_->process().mem().vmas()) {
    if (vma.tag == "qp_shadow") shadows++;
  }
  EXPECT_EQ(shadows, 1u);
  ASSERT_TRUE(a_->destroy_qp(q).is_ok());
  shadows = 0;
  for (const auto& vma : a_->process().mem().vmas()) {
    if (vma.tag == "qp_shadow") shadows++;
  }
  EXPECT_EQ(shadows, 0u);
  EXPECT_TRUE(a_->dump(false).qps.empty());
}

TEST_F(GuestTest, DeallocPdAndBadHandles) {
  VHandle pd = a_->alloc_pd().value();
  EXPECT_TRUE(a_->dealloc_pd(pd).is_ok());
  EXPECT_EQ(a_->dealloc_pd(pd).code(), Errc::not_found);
  EXPECT_EQ(a_->create_cq(0, 999).code(), Errc::not_found);  // bad channel
  EXPECT_EQ(a_->reg_mr(9999, 0x1000, 4096, 0).code(), Errc::not_found);
  EXPECT_EQ(a_->post_send(123456, SendWr{}).code(), Errc::not_found);
  EXPECT_EQ(a_->poll_cq(98765, {}), -1);
}

// ---------------------------------------------------------------------------
// Completion channels (§3.4 CQ events)
// ---------------------------------------------------------------------------

TEST_F(GuestTest, CqEventsThroughVirtualizationLayer) {
  VHandle ch = b_->create_comp_channel().value();
  VHandle evcq = b_->create_cq(128, ch).value();
  VQpn qb = qp(b_, pd_b_, evcq);
  VQpn qa = qp(a_, pd_a_, cq_a_);
  connect(qa, qb);
  Buf sb = buf(a_, pd_a_, 4096);
  Buf rb = buf(b_, pd_b_, 4096);
  RecvWr rwr;
  rwr.sge = {{rb.addr, 4096, rb.mr.vlkey}};
  ASSERT_TRUE(b_->post_recv(qb, rwr).is_ok());
  ASSERT_TRUE(b_->req_notify_cq(evcq).is_ok());
  EXPECT_FALSE(b_->get_cq_event(ch).has_value());

  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sb.addr, 64, sb.mr.vlkey}};
  ASSERT_TRUE(a_->post_send(qa, wr).is_ok());
  run_for(sim::msec(1));

  auto ev = b_->get_cq_event(ch);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(*ev, evcq);  // translated back to the virtual CQ handle
  b_->ack_cq_events(ch, 1);
}

TEST_F(GuestTest, UnackedCqEventBlocksWbs) {
  VHandle ch = a_->create_comp_channel().value();
  VHandle evcq = a_->create_cq(128, ch).value();
  VQpn qa = qp(a_, pd_a_, evcq);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  connect(qa, qb);
  Buf sb = buf(a_, pd_a_, 4096);
  Buf db = buf(b_, pd_b_, 4096);
  ASSERT_TRUE(a_->req_notify_cq(evcq).is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = db.mr.vrkey;
  wr.sge = {{sb.addr, 64, sb.mr.vlkey}};
  ASSERT_TRUE(a_->post_send(qa, wr).is_ok());
  run_for(sim::msec(1));
  // Consume the event but do NOT ack it: an unfinished event.
  ASSERT_TRUE(a_->get_cq_event(ch).has_value());

  bool done = false;
  a_->set_wbs_done_callback([&] { done = true; });
  a_->suspend(SuspendScope{true, 0});
  b_->suspend(SuspendScope{false, 10});
  run_for(sim::msec(5));
  EXPECT_FALSE(done) << "WBS must wait for unfinished CQ events (§3.4)";
  a_->ack_cq_events(ch, 1);
  run_for(sim::msec(1));
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// UD virtualization
// ---------------------------------------------------------------------------

TEST_F(GuestTest, UdAddressingUsesGuestIdsAndCaches) {
  VQpn qa = qp(a_, pd_a_, cq_a_, rnic::QpType::ud);
  VQpn qb = qp(b_, pd_b_, cq_b_, rnic::QpType::ud);
  for (auto [g, q] : {std::pair{a_, qa}, std::pair{b_, qb}}) {
    // UD QPs: just walk the state machine, no peer.
    ASSERT_TRUE(g->raw().modify_qp_init(g->physical_qpn(q).value()).is_ok());
    ASSERT_TRUE(g->raw().modify_qp_rtr(g->physical_qpn(q).value(), 0, 0, 0).is_ok());
    ASSERT_TRUE(g->raw().modify_qp_rts(g->physical_qpn(q).value(), 0).is_ok());
  }
  Buf sb = buf(a_, pd_a_, 4096);
  Buf rb = buf(b_, pd_b_, 4096);
  RecvWr rwr;
  rwr.wr_id = 5;
  rwr.sge = {{rb.addr, 4096, rb.mr.vlkey}};
  ASSERT_TRUE(b_->post_recv(qb, rwr).is_ok());

  const auto fetches = runtimes_[1]->stats().pqpn_fetches;
  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.remote_host = 20;  // GuestId, not a host id: virtual addressing
  wr.remote_qpn = qb;   // virtual QPN of the peer
  wr.sge = {{sb.addr, 128, sb.mr.vlkey}};
  ASSERT_TRUE(a_->post_send(qa, wr).is_ok());
  run_for(sim::msec(1));
  Cqe cqe;
  ASSERT_EQ(b_->poll_cq(cq_b_, {&cqe, 1}), 1);
  EXPECT_EQ(cqe.wr_id, 5u);
  EXPECT_EQ(runtimes_[1]->stats().pqpn_fetches, fetches + 1);

  // Second datagram: resolution served from the local cache (§3.3 case 2).
  RecvWr rwr2;
  rwr2.sge = {{rb.addr, 4096, rb.mr.vlkey}};
  ASSERT_TRUE(b_->post_recv(qb, rwr2).is_ok());
  ASSERT_TRUE(a_->post_send(qa, wr).is_ok());
  run_for(sim::msec(1));
  EXPECT_EQ(runtimes_[1]->stats().pqpn_fetches, fetches + 1);
}

// ---------------------------------------------------------------------------
// Suspension / fake CQ details
// ---------------------------------------------------------------------------

TEST_F(GuestTest, FakeCqPreservesOrderAcrossRealAndParkedEntries) {
  VQpn qa = qp(a_, pd_a_, cq_a_);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  connect(qa, qb);
  Buf sb = buf(a_, pd_a_, 1 << 16);
  Buf db = buf(b_, pd_b_, 1 << 16);
  auto write = [&](std::uint64_t id) {
    SendWr wr;
    wr.wr_id = id;
    wr.opcode = WrOpcode::rdma_write;
    wr.remote_addr = db.addr;
    wr.rkey = db.mr.vrkey;
    wr.sge = {{sb.addr, 1 << 14, sb.mr.vlkey}};
    ASSERT_TRUE(a_->post_send(qa, wr).is_ok());
  };
  write(1);
  write(2);
  a_->suspend(SuspendScope{true, 0});
  b_->suspend(SuspendScope{false, 10});
  run_for(sim::msec(5));  // WBS parks 1 and 2 in the fake CQ
  ASSERT_TRUE(a_->wbs_done());
  EXPECT_EQ(a_->fake_cq_depth(cq_a_), 2u);
  write(3);  // intercepted
  // Simulate restore-less resume: just lift suspension via the partner
  // switch path isn't available here, so poll the fake entries directly.
  Cqe cqe;
  ASSERT_EQ(a_->poll_cq(cq_a_, {&cqe, 1}), 1);
  EXPECT_EQ(cqe.wr_id, 1u);
  ASSERT_EQ(a_->poll_cq(cq_a_, {&cqe, 1}), 1);
  EXPECT_EQ(cqe.wr_id, 2u);
  EXPECT_EQ(a_->poll_cq(cq_a_, {&cqe, 1}), 0);  // 3 is intercepted, not lost
}

// The library refuses an opcode the NIC would refuse while it intercepts
// posts too: held, the WR would reach the final image, which the
// destination then fails to parse.
TEST_F(GuestTest, SuspendedPostRefusesUnknownOpcode) {
  VQpn qa = qp(a_, pd_a_, cq_a_);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  connect(qa, qb);
  Buf sb = buf(a_, pd_a_, 1 << 16);
  a_->suspend(SuspendScope{true, 0});
  SendWr wr;
  wr.opcode = static_cast<WrOpcode>(static_cast<std::uint8_t>(rnic::kLastWrOpcode) + 1);
  wr.sge = {{sb.addr, 64, sb.mr.vlkey}};
  EXPECT_EQ(a_->post_send(qa, wr).code(), Errc::invalid_argument);
  wr.opcode = WrOpcode::send;
  ASSERT_TRUE(a_->post_send(qa, wr).is_ok());  // intercepted
  const RdmaImage img = a_->dump(/*final=*/true);
  EXPECT_EQ(img.intercepted_sends.size(), 1u);
  EXPECT_TRUE(RdmaImage::parse(img.serialize()).is_ok());
}

TEST_F(GuestTest, SuspendScopeIsPerPeer) {
  GuestContext* c = runtimes_[2]->create_guest(world_.add_process("c"), 30).value();
  VHandle pd_c = c->alloc_pd().value();
  VHandle cq_c = c->create_cq(256).value();
  VQpn qa1 = qp(a_, pd_a_, cq_a_);
  VQpn qa2 = qp(a_, pd_a_, cq_a_);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  GuestQpAttr attr;
  attr.vpd = pd_c;
  attr.vsend_cq = cq_c;
  attr.vrecv_cq = cq_c;
  VQpn qc = c->create_qp(attr).value();
  connect(qa1, qb);
  ASSERT_TRUE(a_->connect_qp(qa2, 30, qc, 5, 6).is_ok());
  ASSERT_TRUE(c->connect_qp(qc, 10, qa2, 6, 5).is_ok());

  // Partner-style suspension towards guest 20 only.
  a_->suspend(SuspendScope{false, 20});
  EXPECT_TRUE(a_->qp_suspended(qa1));
  EXPECT_FALSE(a_->qp_suspended(qa2)) << "QPs to other peers stay live (§3.1)";
}

TEST_F(GuestTest, QpsToPeerAndConnectedPeers) {
  VQpn qa1 = qp(a_, pd_a_, cq_a_);
  VQpn qa2 = qp(a_, pd_a_, cq_a_);
  VQpn qb1 = qp(b_, pd_b_, cq_b_);
  VQpn qb2 = qp(b_, pd_b_, cq_b_);
  connect(qa1, qb1);
  connect(qa2, qb2);
  auto peers = a_->connected_peers();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0], 20u);
  EXPECT_EQ(a_->qps_to_peer(20).size(), 2u);
  EXPECT_TRUE(a_->qps_to_peer(99).empty());
}

TEST_F(GuestTest, PartnerPrepareIsIdempotent) {
  VQpn qa = qp(a_, pd_a_, cq_a_);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  connect(qa, qb);
  auto p1 = b_->partner_prepare_qp(qb);
  auto p2 = b_->partner_prepare_qp(qb);
  ASSERT_TRUE(p1.is_ok());
  ASSERT_TRUE(p2.is_ok());
  EXPECT_EQ(p1.value(), p2.value());
  // Switch before connect is rejected.
  GuestContext* fresh = runtimes_[2]->create_guest(world_.add_process("f"), 40).value();
  (void)fresh;
  EXPECT_EQ(b_->partner_connect_qp(999, 1, 1, 1, 1).code(), Errc::not_found);
}

TEST_F(GuestTest, DumpCountersContinueAcrossMigrationBases) {
  VQpn qa = qp(a_, pd_a_, cq_a_);
  VQpn qb = qp(b_, pd_b_, cq_b_);
  connect(qa, qb);
  Buf sb = buf(a_, pd_a_, 4096);
  Buf rb = buf(b_, pd_b_, 4096);
  for (int i = 0; i < 3; ++i) {
    RecvWr rwr;
    rwr.sge = {{rb.addr, 1024, rb.mr.vlkey}};
    ASSERT_TRUE(b_->post_recv(qb, rwr).is_ok());
    SendWr wr;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sb.addr, 64, sb.mr.vlkey}};
    ASSERT_TRUE(a_->post_send(qa, wr).is_ok());
  }
  run_for(sim::msec(1));
  a_->suspend(SuspendScope{true, 0});
  b_->suspend(SuspendScope{false, 10});
  run_for(sim::msec(2));
  RdmaImage img = a_->dump(true);
  ASSERT_EQ(img.counters.size(), 1u);
  EXPECT_EQ(img.counters[0].n_sent, 3u);  // "since creation" (§3.4)
}

}  // namespace
}  // namespace migr::migrlib
