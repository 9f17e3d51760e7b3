// Edge cases of the RNIC substrate that the main rnic_test exercises only
// in passing: multi-element SGE lists, zero-length operations, CQ overflow,
// ACK coalescing, atomic validation, MW rebind invalidation, duplicate
// suppression under pathological loss, and reset semantics.
#include <gtest/gtest.h>

#include <cstring>

#include "rnic/device.hpp"
#include "rnic/world.hpp"

namespace migr::rnic {
namespace {

using common::Errc;

class RnicEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_a_ = &world_.add_device(1);
    dev_b_ = &world_.add_device(2);
    ctx_a_ = dev_a_->open(world_.add_process("a")).value();
    ctx_b_ = dev_b_->open(world_.add_process("b")).value();
    pd_a_ = ctx_a_->alloc_pd().value();
    pd_b_ = ctx_b_->alloc_pd().value();
    cq_a_ = ctx_a_->create_cq(256).value();
    cq_b_ = ctx_b_->create_cq(256).value();
  }

  std::pair<Qpn, Qpn> pair(QpCaps caps = {}) {
    Qpn qa = ctx_a_->create_qp({QpType::rc, pd_a_, cq_a_, cq_a_, 0, caps}).value();
    Qpn qb = ctx_b_->create_qp({QpType::rc, pd_b_, cq_b_, cq_b_, 0, caps}).value();
    EXPECT_TRUE(rc_connect(*ctx_a_, qa, *ctx_b_, qb).is_ok());
    return {qa, qb};
  }

  struct Buf {
    proc::VirtAddr addr;
    Mr mr;
  };
  Buf buf(Context* ctx, Handle pd, std::uint64_t size,
          std::uint32_t access = kAccessLocalWrite | kAccessRemoteWrite |
                                 kAccessRemoteRead | kAccessRemoteAtomic) {
    Buf b;
    b.addr = ctx->process().mem().mmap(size, "b").value();
    b.mr = ctx->reg_mr(pd, b.addr, size, access).value();
    return b;
  }

  Cqe wait_cqe(Context* ctx, Handle cq) {
    Cqe cqe;
    const sim::TimeNs deadline = world_.loop().now() + sim::sec(2);
    while (world_.loop().now() < deadline) {
      if (ctx->poll_cq(cq, {&cqe, 1}) == 1) return cqe;
      world_.loop().run_until(world_.loop().now() + sim::usec(20));
    }
    ADD_FAILURE() << "no CQE";
    return cqe;
  }

  rnic::World world_;
  Device* dev_a_ = nullptr;
  Device* dev_b_ = nullptr;
  Context* ctx_a_ = nullptr;
  Context* ctx_b_ = nullptr;
  Handle pd_a_ = 0, pd_b_ = 0, cq_a_ = 0, cq_b_ = 0;
};

TEST_F(RnicEdgeTest, MultiSgeGatherScatter) {
  auto [qa, qb] = pair();
  Buf s1 = buf(ctx_a_, pd_a_, 4096);
  Buf s2 = buf(ctx_a_, pd_a_, 4096);
  Buf r1 = buf(ctx_b_, pd_b_, 4096);
  Buf r2 = buf(ctx_b_, pd_b_, 4096);
  std::vector<std::uint8_t> pa(100, 0xAA), pb(200, 0xBB);
  ASSERT_TRUE(ctx_a_->process().mem().write(s1.addr, pa).is_ok());
  ASSERT_TRUE(ctx_a_->process().mem().write(s2.addr, pb).is_ok());

  // Receiver scatters across two SGEs with different split points.
  RecvWr rwr;
  rwr.sge = {{r1.addr, 150, r1.mr.lkey}, {r2.addr, 4096, r2.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());

  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{s1.addr, 100, s1.mr.lkey}, {s2.addr, 200, s2.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(ctx_b_, cq_b_);
  EXPECT_EQ(cqe.byte_len, 300u);
  // First 150 bytes land in r1 (100 of 0xAA then 50 of 0xBB), rest in r2.
  std::vector<std::uint8_t> out(150);
  ASSERT_TRUE(ctx_b_->process().mem().read(r1.addr, out).is_ok());
  EXPECT_EQ(out[99], 0xAA);
  EXPECT_EQ(out[100], 0xBB);
  std::vector<std::uint8_t> out2(150);
  ASSERT_TRUE(ctx_b_->process().mem().read(r2.addr, out2).is_ok());
  EXPECT_EQ(out2[0], 0xBB);
  EXPECT_EQ(out2[149], 0xBB);
}

TEST_F(RnicEdgeTest, ZeroLengthSend) {
  auto [qa, qb] = pair();
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  RecvWr rwr;
  rwr.wr_id = 9;
  rwr.sge = {{rb.addr, 4096, rb.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr wr;
  wr.wr_id = 8;
  wr.opcode = WrOpcode::send;  // empty SGE list: zero-length message
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe scqe = wait_cqe(ctx_a_, cq_a_);
  EXPECT_EQ(scqe.wr_id, 8u);
  Cqe rcqe = wait_cqe(ctx_b_, cq_b_);
  EXPECT_EQ(rcqe.wr_id, 9u);
  EXPECT_EQ(rcqe.byte_len, 0u);
}

TEST_F(RnicEdgeTest, CqOverflowSetsFlagInsteadOfCorrupting) {
  Handle tiny_cq = ctx_b_->create_cq(2).value();
  Qpn qb = ctx_b_->create_qp({QpType::rc, pd_b_, tiny_cq, tiny_cq, 0, {}}).value();
  Qpn qa = ctx_a_->create_qp({QpType::rc, pd_a_, cq_a_, cq_a_, 0, {}}).value();
  ASSERT_TRUE(rc_connect(*ctx_a_, qa, *ctx_b_, qb).is_ok());
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  for (int i = 0; i < 4; ++i) {
    RecvWr rwr;
    rwr.sge = {{rb.addr, 1024, rb.mr.lkey}};
    ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
    SendWr wr;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sb.addr, 16, sb.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  }
  world_.loop().run_until(world_.loop().now() + sim::msec(5));
  EXPECT_TRUE(ctx_b_->find_cq(tiny_cq)->overflowed);
}

TEST_F(RnicEdgeTest, AckCoalescingOnMultiPacketMessages) {
  auto [qa, qb] = pair();
  const std::uint64_t size = 64 * 4096;  // 64 packets, acked every 16 + last
  Buf sb = buf(ctx_a_, pd_a_, size);
  Buf db = buf(ctx_b_, pd_b_, size);
  const auto tx_before = dev_b_->counters().tx_packets;
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = db.mr.rkey;
  wr.sge = {{sb.addr, static_cast<std::uint32_t>(size), sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  wait_cqe(ctx_a_, cq_a_);
  const auto acks = dev_b_->counters().tx_packets - tx_before;
  EXPECT_LE(acks, 6u) << "ACKs must be coalesced, not per-packet";
  EXPECT_GE(acks, 1u);
}

TEST_F(RnicEdgeTest, MisalignedAtomicRejectedAtPostTime) {
  auto [qa, qb] = pair();
  Buf lb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  SendWr wr;
  wr.opcode = WrOpcode::atomic_fetch_and_add;
  wr.remote_addr = rb.addr + 3;  // misaligned
  wr.rkey = rb.mr.rkey;
  wr.compare_add = 1;
  wr.sge = {{lb.addr, 8, lb.mr.lkey}};
  EXPECT_EQ(ctx_a_->post_send(qa, wr).code(), Errc::invalid_argument);
  wr.remote_addr = rb.addr;
  wr.sge = {{lb.addr, 4, lb.mr.lkey}};  // wrong operand size
  EXPECT_EQ(ctx_a_->post_send(qa, wr).code(), Errc::invalid_argument);
}

TEST_F(RnicEdgeTest, AtomicDeniedWithoutRemoteAtomicAccess) {
  auto [qa, qb] = pair();
  Buf lb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096, kAccessLocalWrite | kAccessRemoteWrite);
  SendWr wr;
  wr.opcode = WrOpcode::atomic_fetch_and_add;
  wr.remote_addr = rb.addr;
  wr.rkey = rb.mr.rkey;
  wr.compare_add = 1;
  wr.sge = {{lb.addr, 8, lb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::remote_access_err);
}

TEST_F(RnicEdgeTest, RemoteRangeWrappingPastTopOfAddressSpaceRejected) {
  // remote_addr + 4096 wraps to 2048, which an `addr + len > end` bounds
  // check lets through to the responder's DMA with a valid rkey.
  const proc::VirtAddr wrapping = ~std::uint64_t{0} - 2047;  // 2^64 - 2048
  for (WrOpcode op : {WrOpcode::rdma_write, WrOpcode::rdma_read}) {
    auto [qa, qb] = pair();  // a fresh pair: the error moves the QP out of RTS
    Buf lb = buf(ctx_a_, pd_a_, 4096);
    Buf rb = buf(ctx_b_, pd_b_, 4096);
    SendWr wr;
    wr.opcode = op;
    wr.remote_addr = wrapping;
    wr.rkey = rb.mr.rkey;
    wr.sge = {{lb.addr, 4096, lb.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
    EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::remote_access_err)
        << "opcode " << static_cast<int>(op);
  }
}

TEST_F(RnicEdgeTest, MwRebindInvalidatesOldRkey) {
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf db = buf(ctx_b_, pd_b_, 8192,
               kAccessLocalWrite | kAccessRemoteWrite | kAccessMwBind);
  Handle mw = ctx_b_->alloc_mw(pd_b_).value();
  Rkey old_rkey =
      ctx_b_->bind_mw(qb, mw, db.mr.lkey, db.addr, 4096, kAccessRemoteWrite, 1).value();
  wait_cqe(ctx_b_, cq_b_);
  Rkey new_rkey =
      ctx_b_->bind_mw(qb, mw, db.mr.lkey, db.addr + 4096, 4096, kAccessRemoteWrite, 2)
          .value();
  wait_cqe(ctx_b_, cq_b_);
  EXPECT_NE(old_rkey, new_rkey);

  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = old_rkey;  // stale: rebind invalidated it
  wr.sge = {{sb.addr, 64, sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::remote_access_err);
}

TEST_F(RnicEdgeTest, HeavyLossLargeWriteEventuallyCompletes) {
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 0.15});
  auto [qa, qb] = pair();
  const std::uint64_t size = 32 * 4096;
  Buf sb = buf(ctx_a_, pd_a_, size);
  Buf db = buf(ctx_b_, pd_b_, size);
  std::vector<std::uint8_t> pattern(size);
  for (std::size_t i = 0; i < size; ++i) pattern[i] = static_cast<std::uint8_t>(i * 31);
  ASSERT_TRUE(ctx_a_->process().mem().write(sb.addr, pattern).is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = db.mr.rkey;
  wr.sge = {{sb.addr, static_cast<std::uint32_t>(size), sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(ctx_a_, cq_a_);
  ASSERT_EQ(cqe.status, CqeStatus::success);
  std::vector<std::uint8_t> out(size);
  ASSERT_TRUE(ctx_b_->process().mem().read(db.addr, out).is_ok());
  EXPECT_EQ(out, pattern);
  EXPECT_GT(dev_a_->counters().retransmits + dev_b_->counters().out_of_sequence, 0u);
}

TEST_F(RnicEdgeTest, ReadUnderLossEventuallyCompletes) {
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 0.2});
  auto [qa, qb] = pair();
  Buf lb = buf(ctx_a_, pd_a_, 16384);
  Buf rb = buf(ctx_b_, pd_b_, 16384);
  std::vector<std::uint8_t> pattern(16384, 0x3C);
  ASSERT_TRUE(ctx_b_->process().mem().write(rb.addr, pattern).is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::rdma_read;
  wr.remote_addr = rb.addr;
  wr.rkey = rb.mr.rkey;
  wr.sge = {{lb.addr, 16384, lb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(ctx_a_, cq_a_);
  ASSERT_EQ(cqe.status, CqeStatus::success);
  std::vector<std::uint8_t> out(16384);
  ASSERT_TRUE(ctx_a_->process().mem().read(lb.addr, out).is_ok());
  EXPECT_EQ(out, pattern);
}

TEST_F(RnicEdgeTest, AtomicUnderLossExecutesExactlyOnce) {
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 0.3});
  auto [qa, qb] = pair();
  Buf lb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  for (int i = 0; i < 10; ++i) {
    SendWr wr;
    wr.opcode = WrOpcode::atomic_fetch_and_add;
    wr.remote_addr = rb.addr;
    wr.rkey = rb.mr.rkey;
    wr.compare_add = 1;
    wr.sge = {{lb.addr, 8, lb.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
    ASSERT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::success);
  }
  std::uint64_t v = 0;
  ASSERT_TRUE(
      ctx_b_->process().mem().read(rb.addr, {reinterpret_cast<std::uint8_t*>(&v), 8}).is_ok());
  // The responder's replay cache must absorb retried atomics (exactly-once).
  EXPECT_EQ(v, 10u);
}

TEST_F(RnicEdgeTest, ResetClearsCountersAndQueues) {
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  RecvWr rwr;
  rwr.sge = {{rb.addr, 4096, rb.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sb.addr, 16, sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  wait_cqe(ctx_a_, cq_a_);
  EXPECT_EQ(ctx_a_->find_qp(qa)->n_sent, 1u);
  ASSERT_TRUE(ctx_a_->modify_qp_reset(qa).is_ok());
  const Qp* qp = ctx_a_->find_qp(qa);
  EXPECT_EQ(qp->state, QpState::reset);
  EXPECT_EQ(qp->n_sent, 0u);
  EXPECT_TRUE(qp->sq.empty());
  // And it can be brought back up.
  ASSERT_TRUE(ctx_a_->modify_qp_init(qa).is_ok());
}

TEST_F(RnicEdgeTest, StalePacketsForDestroyedQpAreDropped) {
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 1 << 16);
  Buf db = buf(ctx_b_, pd_b_, 1 << 16);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = db.mr.rkey;
  wr.sge = {{sb.addr, 1 << 16, sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  // Destroy the receiver while packets are in flight: they must vanish
  // without crashing; the sender eventually errors out.
  ASSERT_TRUE(ctx_b_->destroy_qp(qb).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::msec(500));
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
}

TEST_F(RnicEdgeTest, TailLossAfterPartialAckStillRetransmits) {
  // Regression for the retransmit-timer tail stall: an ACK that makes
  // partial progress resets last_progress, so the QP's timer fires inside
  // the quiet window — if it does not follow the deadline, the unacked
  // tail is never retransmitted (the QP hangs forever with work on its
  // SQ) or is retransmitted up to a full timeout late.
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf db = buf(ctx_b_, pd_b_, 4096);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = db.mr.rkey;
  wr.sge = {{sb.addr, 64, sb.mr.lkey}};

  // WRITE #1 goes through cleanly; run until its packet and the returning
  // ACK are already on the wire (propagation is 2 us each way).
  wr.wr_id = 1;
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::usec(3));

  // WRITE #2 is dropped at transmission; the only recovery path left is
  // the retransmit-timer chain.
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 1.0});
  wr.wr_id = 2;
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::usec(3));
  world_.fabric().set_faults(net::Faults{});

  // ACK #1 lands now: partial cumulative progress, WRITE #2 still unacked.
  Cqe c1 = wait_cqe(ctx_a_, cq_a_);
  EXPECT_EQ(c1.wr_id, 1u);
  ASSERT_EQ(c1.status, CqeStatus::success);
  ASSERT_FALSE(ctx_a_->find_qp(qa)->sq.empty());

  // The partial ACK is the last progress (it landed after WRITE #2 left),
  // so the tail goes out again exactly one retransmit timeout after it.
  const sim::TimeNs ack_at = ctx_a_->find_qp(qa)->last_progress;
  ASSERT_GT(ack_at, sim::usec(3));
  const sim::TimeNs due = ack_at + dev_a_->costs().retransmit_timeout;
  world_.loop().run_until(due - 1);
  EXPECT_EQ(dev_a_->counters().retransmits, 0u);
  world_.loop().run_until(due);
  EXPECT_EQ(dev_a_->counters().retransmits, 1u);

  Cqe c2 = wait_cqe(ctx_a_, cq_a_);
  EXPECT_EQ(c2.wr_id, 2u);
  EXPECT_EQ(c2.status, CqeStatus::success);
  EXPECT_TRUE(ctx_a_->find_qp(qa)->sq.empty());
  EXPECT_GT(dev_a_->counters().retransmits, 0u);
  EXPECT_TRUE(dev_a_->audit_stuck_qps(sim::msec(200)).empty());
}

TEST(RnicTimerTest, LossyStreamKeepsPendingEventsBounded) {
  // One retransmit timer per QP: a 600 ms RC stream at 1% loss with the
  // send queue never empty keeps the event population flat. A timer per
  // sent packet, each re-arming while the QP makes progress, would grow it
  // with every packet sent. A 1 Gbps link keeps the run short (~18k
  // packets).
  World world(net::FabricConfig{.link_gbps = 1.0});
  Device& dev_a = world.add_device(1);
  Device& dev_b = world.add_device(2);
  Context* ctx_a = dev_a.open(world.add_process("a")).value();
  Context* ctx_b = dev_b.open(world.add_process("b")).value();
  const Handle pd_a = ctx_a->alloc_pd().value();
  const Handle pd_b = ctx_b->alloc_pd().value();
  const Handle cq_a = ctx_a->create_cq(256).value();
  const Handle cq_b = ctx_b->create_cq(256).value();
  const Qpn qa = ctx_a->create_qp({QpType::rc, pd_a, cq_a, cq_a, 0, {}}).value();
  const Qpn qb = ctx_b->create_qp({QpType::rc, pd_b, cq_b, cq_b, 0, {}}).value();
  ASSERT_TRUE(rc_connect(*ctx_a, qa, *ctx_b, qb).is_ok());

  constexpr std::uint64_t kMsg = 64 * 1024;  // 16 packets per WRITE
  const proc::VirtAddr src = ctx_a->process().mem().mmap(kMsg, "src").value();
  const proc::VirtAddr dst = ctx_b->process().mem().mmap(kMsg, "dst").value();
  const Mr smr = ctx_a->reg_mr(pd_a, src, kMsg, kAccessLocalWrite).value();
  const Mr dmr = ctx_b->reg_mr(pd_b, dst, kMsg, kAccessLocalWrite | kAccessRemoteWrite).value();
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst;
  wr.rkey = dmr.rkey;
  wr.sge = {{src, kMsg, smr.lkey}};

  world.fabric().set_faults(net::Faults{.data_loss_prob = 0.01});
  constexpr int kWindow = 8;
  for (int i = 0; i < kWindow; ++i) ASSERT_TRUE(ctx_a->post_send(qa, wr).is_ok());
  std::uint64_t completed = 0;
  std::size_t peak = 0;
  const sim::TimeNs end = world.loop().now() + sim::msec(600);
  while (world.loop().now() < end) {
    world.loop().run_for(sim::usec(500));
    peak = std::max(peak, world.loop().pending_events());
    Cqe cqe;
    while (ctx_a->poll_cq(cq_a, {&cqe, 1}) == 1) {
      ASSERT_EQ(cqe.status, CqeStatus::success);
      completed++;
      ASSERT_TRUE(ctx_a->post_send(qa, wr).is_ok());
    }
  }
  EXPECT_GT(completed, 500u);  // ~90% of the 600 ms at line rate
  EXPECT_GT(dev_a.counters().retransmits, 10u);
  EXPECT_LE(peak, 32u);
}

TEST_F(RnicEdgeTest, ProgressFreeNakRewindsExhaustRetryBudget) {
  // A peer that NAKs every retransmission without ever advancing the
  // cumulative ACK point must not keep the requester rewinding forever:
  // each progress-free sequence NAK burns retry budget and the QP flushes
  // to error once it is exhausted. Forge the NAK storm on the wire (the
  // responder QP is destroyed, so nothing real answers).
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  ASSERT_TRUE(ctx_b_->destroy_qp(qb).is_ok());
  SendWr wr;
  wr.wr_id = 77;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sb.addr, 64, sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::usec(1));  // emitted

  const Psn stuck_psn = ctx_a_->find_qp(qa)->acked_psn;  // rewind target: no progress
  for (int i = 0; i < 10; ++i) {
    WirePacket nak;
    nak.op = PktOp::nak;
    nak.src_qpn = qb;
    nak.dst_qpn = qa;
    nak.psn = stuck_psn;
    net::Packet raw;
    raw.src = 2;
    raw.dst = 1;
    nak.serialize_header(raw.header);
    world_.fabric().send_data(std::move(raw));
    world_.loop().run_until(world_.loop().now() + sim::usec(10));
    if (ctx_a_->query_qp_state(qa).value() == QpState::err) break;
  }

  Cqe cqe = wait_cqe(ctx_a_, cq_a_);
  EXPECT_EQ(cqe.wr_id, 77u);
  EXPECT_EQ(cqe.status, CqeStatus::retry_exceeded);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
  // Budget-bounded: well before the 50 ms retransmit-timeout path could
  // have contributed anything.
  EXPECT_LT(world_.loop().now(), sim::msec(1));
}

TEST_F(RnicEdgeTest, RnrNaksDoNotConsumeRetryBudget) {
  // Receiver-not-ready is flow control, not network damage: a SEND posted
  // long before any RECV must survive arbitrarily many RNR retry rounds
  // and complete once the RECV finally appears.
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  SendWr wr;
  wr.wr_id = 5;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sb.addr, 64, sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  // Each RNR round waits out kRnrHold; run well past the round at which a
  // budgeted rewind would have moved the QP to error.
  world_.loop().run_until(world_.loop().now() + sim::msec(10));
  ASSERT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::rts);
  ASSERT_GT(dev_a_->counters().rnr_waits,
            static_cast<std::uint64_t>(dev_a_->costs().retry_count) + 1);

  RecvWr rwr;
  rwr.sge = {{rb.addr, 4096, rb.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::success);
  EXPECT_EQ(wait_cqe(ctx_b_, cq_b_).status, CqeStatus::success);
}

TEST_F(RnicEdgeTest, RnrNakHoldsRequesterForTheRnrWait) {
  // After an RNR NAK the requester stays silent for kRnrHold, then replays
  // the window once — instead of re-kicking at once and looping into the
  // empty RQ at line rate, every packet behind the head dropped out of
  // sequence.
  auto [qa, qb] = pair();

  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 8 * 64);
  constexpr std::uint64_t kWindow = 8;  // single-packet SENDs, no RECV yet
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    SendWr wr;
    wr.wr_id = i;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sb.addr, 64, sb.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  }
  const sim::TimeNs t0 = world_.loop().now();
  const PortCounters& a = dev_a_->counters();
  const PortCounters& b = dev_b_->counters();

  // Round 1: the head is RNR-dropped and NAKed, the rest fall out of
  // sequence, and the NAK starts one hold on the requester.
  world_.loop().run_until(t0 + sim::usec(50));
  EXPECT_EQ(b.rx_rnr_drop, 1u);
  EXPECT_EQ(b.out_of_sequence, kWindow - 1);
  EXPECT_EQ(a.rnr_waits, 1u);
  const sim::TimeNs until = ctx_a_->find_qp(qa)->rnr_hold_until;
  EXPECT_GT(until, t0 + kRnrHold);
  EXPECT_LT(until, t0 + kRnrHold + sim::usec(50));

  // Nothing leaves the requester before the hold ends...
  world_.loop().run_until(until - 1);
  EXPECT_EQ(b.rx_rnr_drop, 1u);
  EXPECT_EQ(a.tx_retransmit_packets, 0u);
  // ...then exactly one go-back-N replay of the window, and a new hold.
  world_.loop().run_until(until + sim::usec(50));
  EXPECT_EQ(b.rx_rnr_drop, 2u);
  EXPECT_EQ(a.tx_retransmit_packets, kWindow);
  EXPECT_EQ(a.rnr_waits, 2u);

  // One round per hold from then on, budget-free: the QP stays in RTS.
  world_.loop().run_until(t0 + sim::msec(10));
  EXPECT_GE(b.rx_rnr_drop, static_cast<std::uint64_t>(sim::msec(10) / (kRnrHold + sim::usec(50))));
  EXPECT_LE(b.rx_rnr_drop, static_cast<std::uint64_t>(sim::msec(10) / kRnrHold + 1));
  EXPECT_EQ(b.rx_packets, b.rx_rnr_drop * kWindow);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::rts);

  // RECVs appear: the window lands at the next retry, not before it.
  const sim::TimeNs next_retry = ctx_a_->find_qp(qa)->rnr_hold_until;
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    RecvWr rwr;
    rwr.sge = {{rb.addr + i * 64, 64, rb.mr.lkey}};
    ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  }
  Cqe cqe = wait_cqe(ctx_b_, cq_b_);
  EXPECT_EQ(cqe.status, CqeStatus::success);
  EXPECT_GE(world_.loop().now(), next_retry);
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::success);
  }
  EXPECT_LT(world_.loop().now(), next_retry + sim::usec(100));
}

TEST_F(RnicEdgeTest, NakSentinelClearedAcrossReconnect) {
  // The one-NAK-per-gap-event sentinel must not leak across a QP's
  // reconnect (reset->init->rtr), or a stale value equal to the new
  // expected PSN suppresses the first NAK of the QP's next life and gap
  // recovery silently degrades from ~1 RTT to a full retransmit timeout.
  auto [qa, qb] = pair();
  ASSERT_TRUE(ctx_a_->modify_qp_reset(qa).is_ok());
  EXPECT_EQ(ctx_a_->find_qp(qa)->last_nak_psn, static_cast<Psn>(-1));
  ASSERT_TRUE(ctx_b_->modify_qp_reset(qb).is_ok());

  // Poison the sentinel with the exact PSN the reconnect installs; the
  // rtr transition must clear it.
  ctx_b_->find_qp_mut(qb)->last_nak_psn = 1000;
  ASSERT_TRUE(rc_connect(*ctx_a_, qa, *ctx_b_, qb).is_ok());
  EXPECT_EQ(ctx_b_->find_qp(qb)->last_nak_psn, static_cast<Psn>(-1));

  // Behavioral check: drop the first WRITE, let the second through. The
  // receiver sees a PSN gap and must NAK immediately — recovery happens in
  // microseconds, not at the 50 ms retransmit timeout.
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf db = buf(ctx_b_, pd_b_, 4096);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = db.addr;
  wr.rkey = db.mr.rkey;
  wr.sge = {{sb.addr, 64, sb.mr.lkey}};
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 1.0});
  wr.wr_id = 1;
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::usec(1));  // emitted + dropped
  world_.fabric().set_faults(net::Faults{});
  wr.wr_id = 2;
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  const sim::TimeNs t0 = world_.loop().now();
  EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::success);
  EXPECT_EQ(wait_cqe(ctx_a_, cq_a_).status, CqeStatus::success);
  EXPECT_LT(world_.loop().now() - t0, sim::msec(10)) << "gap recovery took the slow"
                                                        " timeout path; NAK was suppressed";
}

TEST_F(RnicEdgeTest, TooManySgesRejected) {
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 1 << 16);
  SendWr wr;
  wr.opcode = WrOpcode::send;
  for (int i = 0; i < 20; ++i) wr.sge.push_back({sb.addr, 16, sb.mr.lkey});
  EXPECT_EQ(ctx_a_->post_send(qa, wr).code(), Errc::invalid_argument);
}

// An opcode past WrOpcode's last value has no completion rule. Accepted, it
// held the SQ head until the retry budget ran out, and the SEND behind it
// completed wr_flush_err although its RECV had completed on the responder.
TEST_F(RnicEdgeTest, UnknownOpcodeRefusedAndSendBehindItCompletes) {
  auto [qa, qb] = pair();
  Buf sb = buf(ctx_a_, pd_a_, 4096);
  Buf rb = buf(ctx_b_, pd_b_, 4096);
  RecvWr rwr;
  rwr.wr_id = 9;
  rwr.sge = {{rb.addr, 4096, rb.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr bad;
  bad.wr_id = 7;
  bad.opcode = static_cast<WrOpcode>(static_cast<std::uint8_t>(kLastWrOpcode) + 1);
  bad.sge = {{sb.addr, 8, sb.mr.lkey}};
  EXPECT_EQ(ctx_a_->post_send(qa, bad).code(), Errc::invalid_argument);
  SendWr wr;
  wr.wr_id = 8;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sb.addr, 8, sb.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  const Cqe scqe = wait_cqe(ctx_a_, cq_a_);
  EXPECT_EQ(scqe.wr_id, 8u);
  EXPECT_EQ(scqe.status, CqeStatus::success);
  const Cqe rcqe = wait_cqe(ctx_b_, cq_b_);
  EXPECT_EQ(rcqe.wr_id, 9u);
  EXPECT_EQ(rcqe.status, CqeStatus::success);
}

}  // namespace
}  // namespace migr::rnic
