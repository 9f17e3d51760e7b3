#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "rnic/device.hpp"
#include "rnic/world.hpp"

namespace migr::rnic {
namespace {

using common::Errc;

// ---------------------------------------------------------------------------
// SgeList: the first kInline entries live inline, longer lists spill to one
// heap block. Every size below is run against every other, so each
// operation crosses the inline/spill boundary in both directions.
// ---------------------------------------------------------------------------

constexpr std::size_t kSgeSizes[] = {0, 1, 2, 3, 16, SgeList::kCapacity};

Sge tagged_sge(std::size_t i, std::uint32_t tag) {
  return {0x1000ull * (i + 1) + tag, static_cast<std::uint32_t>(i + 1),
          tag * 100 + static_cast<std::uint32_t>(i)};
}

SgeList tagged_list(std::size_t n, std::uint32_t tag) {
  SgeList l;
  for (std::size_t i = 0; i < n; ++i) l.push_back(tagged_sge(i, tag));
  return l;
}

void expect_tagged(const SgeList& l, std::size_t n, std::uint32_t tag) {
  ASSERT_EQ(l.size(), n);
  ASSERT_EQ(l.end() - l.begin(), static_cast<std::ptrdiff_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const Sge want = tagged_sge(i, tag);
    EXPECT_EQ(l[i].addr, want.addr) << "entry " << i;
    EXPECT_EQ(l[i].length, want.length) << "entry " << i;
    EXPECT_EQ(l[i].lkey, want.lkey) << "entry " << i;
  }
}

// Two lists share storage when one's entries overlap the other's.
bool shares_storage(const SgeList& a, const SgeList& b) {
  if (a.empty() || b.empty()) return false;
  const std::less<const Sge*> lt;
  return lt(a.data(), b.data() + b.size()) && lt(b.data(), a.data() + a.size());
}

TEST(SgeList, CopyAndMoveKeepEntriesAndShareNothing) {
  for (const std::size_t n : kSgeSizes) {
    SCOPED_TRACE(n);
    const SgeList src = tagged_list(n, 1);
    SgeList copy(src);
    expect_tagged(copy, n, 1);
    EXPECT_FALSE(shares_storage(copy, src));
    if (n > 0) {
      copy[n - 1].lkey = 0xDEAD;  // a write to the copy leaves the source alone
      EXPECT_EQ(src[n - 1].lkey, tagged_sge(n - 1, 1).lkey);
    }

    SgeList from = tagged_list(n, 2);
    SgeList moved(std::move(from));
    expect_tagged(moved, n, 2);
    EXPECT_TRUE(from.empty());  // NOLINT(bugprone-use-after-move)
    // The moved-from list is reusable and shares nothing with its heir.
    from = tagged_list(n, 3);
    expect_tagged(from, n, 3);
    expect_tagged(moved, n, 2);
    EXPECT_FALSE(shares_storage(from, moved));
  }
}

TEST(SgeList, AssignmentOverEveryOtherSize) {
  for (const std::size_t n : kSgeSizes) {
    for (const std::size_t m : kSgeSizes) {
      SCOPED_TRACE(testing::Message() << n << " over " << m);
      const SgeList src = tagged_list(n, 1);
      SgeList copied = tagged_list(m, 2);
      copied = src;
      expect_tagged(copied, n, 1);
      expect_tagged(src, n, 1);
      EXPECT_FALSE(shares_storage(copied, src));

      SgeList from = tagged_list(n, 3);
      SgeList moved = tagged_list(m, 4);
      moved = std::move(from);
      expect_tagged(moved, n, 3);
      EXPECT_TRUE(from.empty());  // NOLINT(bugprone-use-after-move)
      from = tagged_list(m, 5);
      expect_tagged(from, m, 5);
      expect_tagged(moved, n, 3);
      EXPECT_FALSE(shares_storage(from, moved));

      // Grown and shrunk in place: kept entries stay, grown ones are Sge{}.
      SgeList resized = tagged_list(n, 6);
      resized.resize(m);
      ASSERT_EQ(resized.size(), m);
      for (std::size_t i = 0; i < m; ++i) {
        const Sge want = i < n ? tagged_sge(i, 6) : Sge{};
        EXPECT_EQ(resized[i].addr, want.addr) << "entry " << i;
        EXPECT_EQ(resized[i].length, want.length) << "entry " << i;
        EXPECT_EQ(resized[i].lkey, want.lkey) << "entry " << i;
      }
      // push_back past the resized length still appends after it.
      if (m < SgeList::kCapacity) {
        resized.push_back(tagged_sge(m, 7));
        ASSERT_EQ(resized.size(), m + 1);
        EXPECT_EQ(resized[m].lkey, tagged_sge(m, 7).lkey);
      }
    }
  }
}

TEST(SgeList, SelfAssignmentKeepsEntries) {
  for (const std::size_t n : kSgeSizes) {
    SCOPED_TRACE(n);
    SgeList l = tagged_list(n, 1);
    SgeList& alias = l;
    l = alias;
    expect_tagged(l, n, 1);
    l = std::move(alias);
    expect_tagged(l, n, 1);
  }
}

TEST(SgeList, InitializerListAssignmentCrossesTheInlineBoundary) {
  SgeList l = tagged_list(16, 1);
  l = {tagged_sge(0, 2), tagged_sge(1, 2)};
  expect_tagged(l, 2, 2);
  l = {tagged_sge(0, 3), tagged_sge(1, 3), tagged_sge(2, 3)};
  expect_tagged(l, 3, 3);
  l = {tagged_sge(0, 4)};
  expect_tagged(l, 1, 4);
  l = {};
  EXPECT_TRUE(l.empty());
  const SgeList built{tagged_sge(0, 5), tagged_sge(1, 5), tagged_sge(2, 5)};
  expect_tagged(built, 3, 5);
}

/// Two hosts, one process + context each, one PD/CQ each, helpers to make
/// buffers and connected RC QP pairs.
class RnicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_a_ = &world_.add_device(1);
    dev_b_ = &world_.add_device(2);
    proc_a_ = &world_.add_process("a");
    proc_b_ = &world_.add_process("b");
    ctx_a_ = world_to_ctx(*dev_a_, *proc_a_);
    ctx_b_ = world_to_ctx(*dev_b_, *proc_b_);
    pd_a_ = ctx_a_->alloc_pd().value();
    pd_b_ = ctx_b_->alloc_pd().value();
    cq_a_ = ctx_a_->create_cq(1024).value();
    cq_b_ = ctx_b_->create_cq(1024).value();
  }

  static Context* world_to_ctx(Device& d, proc::SimProcess& p) {
    auto r = d.open(p);
    EXPECT_TRUE(r.is_ok());
    return r.value();
  }

  struct Buf {
    proc::VirtAddr addr;
    Mr mr;
  };

  Buf make_buf(Context& ctx, Handle pd, std::uint64_t size,
               std::uint32_t access = kAccessLocalWrite | kAccessRemoteWrite |
                                      kAccessRemoteRead | kAccessRemoteAtomic) {
    auto va = ctx.process().mem().mmap(size, "buf");
    EXPECT_TRUE(va.is_ok());
    auto mr = ctx.reg_mr(pd, va.value(), size, access);
    EXPECT_TRUE(mr.is_ok());
    return Buf{va.value(), mr.value()};
  }

  /// Create a connected RC QP pair (a side, b side).
  std::pair<Qpn, Qpn> connect_pair(QpCaps caps = {}) {
    QpInitAttr attr_a{QpType::rc, pd_a_, cq_a_, cq_a_, 0, caps};
    QpInitAttr attr_b{QpType::rc, pd_b_, cq_b_, cq_b_, 0, caps};
    Qpn qa = ctx_a_->create_qp(attr_a).value();
    Qpn qb = ctx_b_->create_qp(attr_b).value();
    EXPECT_TRUE(rc_connect(*ctx_a_, qa, *ctx_b_, qb).is_ok());
    return {qa, qb};
  }

  /// Drain one CQE from a CQ, running the loop until it shows up.
  Cqe wait_cqe(Context& ctx, Handle cq, sim::DurationNs limit = sim::msec(100)) {
    Cqe cqe;
    const sim::TimeNs deadline = world_.loop().now() + limit;
    while (world_.loop().now() < deadline) {
      if (ctx.poll_cq(cq, {&cqe, 1}) == 1) return cqe;
      if (world_.loop().empty()) break;
      world_.loop().run_until(world_.loop().now() + sim::usec(10));
    }
    ADD_FAILURE() << "no CQE within limit";
    return cqe;
  }

  void fill_pattern(proc::SimProcess& p, proc::VirtAddr addr, std::size_t n,
                    std::uint8_t seed) {
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(seed + i * 7);
    ASSERT_TRUE(p.mem().write(addr, data).is_ok());
  }

  void expect_pattern(proc::SimProcess& p, proc::VirtAddr addr, std::size_t n,
                      std::uint8_t seed) {
    std::vector<std::uint8_t> data(n);
    ASSERT_TRUE(p.mem().read(addr, data).is_ok());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], static_cast<std::uint8_t>(seed + i * 7)) << "at offset " << i;
    }
  }

  World world_;
  Device* dev_a_ = nullptr;
  Device* dev_b_ = nullptr;
  proc::SimProcess* proc_a_ = nullptr;
  proc::SimProcess* proc_b_ = nullptr;
  Context* ctx_a_ = nullptr;
  Context* ctx_b_ = nullptr;
  Handle pd_a_ = 0, pd_b_ = 0, cq_a_ = 0, cq_b_ = 0;
};

// ---------------------------------------------------------------------------
// Control path
// ---------------------------------------------------------------------------

TEST_F(RnicTest, QpnsDifferAcrossDevices) {
  auto [qa, qb] = connect_pair();
  // Devices draw QPNs from randomized bases; the premise of virtualization.
  EXPECT_NE(qa, qb);
  EXPECT_LE(qa, kQpnMask);
  EXPECT_LE(qb, kQpnMask);
}

TEST_F(RnicTest, KeysAreOpaqueNonDense) {
  auto b1 = make_buf(*ctx_a_, pd_a_, 4096);
  auto b2 = make_buf(*ctx_a_, pd_a_, 4096);
  EXPECT_NE(b1.mr.lkey, b2.mr.lkey);
  EXPECT_NE(b1.mr.lkey + 1, b2.mr.lkey);  // not dense
}

TEST_F(RnicTest, RegMrRequiresMappedMemory) {
  auto r = ctx_a_->reg_mr(pd_a_, 0xDEAD0000, 4096, kAccessLocalWrite);
  EXPECT_EQ(r.code(), Errc::permission_denied);
}

TEST_F(RnicTest, RemoteWriteRequiresLocalWrite) {
  auto va = proc_a_->mem().mmap(4096, "buf").value();
  auto r = ctx_a_->reg_mr(pd_a_, va, 4096, kAccessRemoteWrite);
  EXPECT_EQ(r.code(), Errc::invalid_argument);
}

TEST_F(RnicTest, QpStateMachineEnforced) {
  QpInitAttr attr{QpType::rc, pd_a_, cq_a_, cq_a_, 0, {}};
  Qpn q = ctx_a_->create_qp(attr).value();
  EXPECT_EQ(ctx_a_->query_qp_state(q).value(), QpState::reset);
  // RTR before INIT is rejected.
  EXPECT_EQ(ctx_a_->modify_qp_rtr(q, 2, 77, 0).code(), Errc::failed_precondition);
  ASSERT_TRUE(ctx_a_->modify_qp_init(q).is_ok());
  EXPECT_EQ(ctx_a_->modify_qp_init(q).code(), Errc::failed_precondition);
  ASSERT_TRUE(ctx_a_->modify_qp_rtr(q, 2, 77, 0).is_ok());
  ASSERT_TRUE(ctx_a_->modify_qp_rts(q, 0).is_ok());
  EXPECT_EQ(ctx_a_->query_qp_state(q).value(), QpState::rts);
}

TEST_F(RnicTest, PostSendRequiresRts) {
  QpInitAttr attr{QpType::rc, pd_a_, cq_a_, cq_a_, 0, {}};
  Qpn q = ctx_a_->create_qp(attr).value();
  SendWr wr;
  wr.opcode = WrOpcode::send;
  EXPECT_EQ(ctx_a_->post_send(q, wr).code(), Errc::failed_precondition);
}

TEST_F(RnicTest, SqFullIsResourceExhausted) {
  QpCaps caps{.max_send_wr = 2, .max_recv_wr = 2};
  auto [qa, qb] = connect_pair(caps);
  auto buf = make_buf(*ctx_a_, pd_a_, 4096);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_read;  // reads stay in SQ until responses
  auto remote = make_buf(*ctx_b_, pd_b_, 4096);
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.sge = {{buf.addr, 64, buf.mr.lkey}};
  EXPECT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_EQ(ctx_a_->post_send(qa, wr).code(), Errc::resource_exhausted);
}

TEST_F(RnicTest, DeviceQpLimit) {
  DeviceConfig cfg;
  cfg.max_qp = 2;
  Device& d = world_.add_device(9, cfg);
  auto& p = world_.add_process("p9");
  Context* ctx = d.open(p).value();
  Handle pd = ctx->alloc_pd().value();
  Handle cq = ctx->create_cq(16).value();
  QpInitAttr attr{QpType::rc, pd, cq, cq, 0, {}};
  EXPECT_TRUE(ctx->create_qp(attr).is_ok());
  EXPECT_TRUE(ctx->create_qp(attr).is_ok());
  EXPECT_EQ(ctx->create_qp(attr).code(), Errc::resource_exhausted);
}

// ---------------------------------------------------------------------------
// Two-sided SEND/RECV
// ---------------------------------------------------------------------------

TEST_F(RnicTest, SendRecvSmallMessage) {
  auto [qa, qb] = connect_pair();
  auto sbuf = make_buf(*ctx_a_, pd_a_, 4096);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 4096);
  fill_pattern(*proc_a_, sbuf.addr, 64, 3);

  RecvWr rwr;
  rwr.wr_id = 900;
  rwr.sge = {{rbuf.addr, 4096, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());

  SendWr swr;
  swr.wr_id = 100;
  swr.opcode = WrOpcode::send;
  swr.sge = {{sbuf.addr, 64, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, swr).is_ok());

  Cqe scqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(scqe.wr_id, 100u);
  EXPECT_EQ(scqe.status, CqeStatus::success);
  EXPECT_EQ(scqe.opcode, CqeOpcode::send);
  EXPECT_EQ(scqe.qpn, qa);

  Cqe rcqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_EQ(rcqe.wr_id, 900u);
  EXPECT_EQ(rcqe.opcode, CqeOpcode::recv);
  EXPECT_EQ(rcqe.byte_len, 64u);
  EXPECT_EQ(rcqe.qpn, qb);
  expect_pattern(*proc_b_, rbuf.addr, 64, 3);
}

TEST_F(RnicTest, SendMultiPacketMessage) {
  auto [qa, qb] = connect_pair();
  const std::size_t size = 3 * 4096 + 500;  // 4 packets
  auto sbuf = make_buf(*ctx_a_, pd_a_, size);
  auto rbuf = make_buf(*ctx_b_, pd_b_, size);
  fill_pattern(*proc_a_, sbuf.addr, size, 11);

  RecvWr rwr;
  rwr.sge = {{rbuf.addr, static_cast<std::uint32_t>(size), rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr swr;
  swr.opcode = WrOpcode::send;
  swr.sge = {{sbuf.addr, static_cast<std::uint32_t>(size), sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, swr).is_ok());

  Cqe rcqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_EQ(rcqe.byte_len, size);
  expect_pattern(*proc_b_, rbuf.addr, size, 11);
  wait_cqe(*ctx_a_, cq_a_);
}

TEST_F(RnicTest, SendWithImmCarriesImmediate) {
  auto [qa, qb] = connect_pair();
  auto sbuf = make_buf(*ctx_a_, pd_a_, 64);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 64);
  RecvWr rwr;
  rwr.sge = {{rbuf.addr, 64, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr swr;
  swr.opcode = WrOpcode::send_with_imm;
  swr.imm = 0xABCD1234;
  swr.sge = {{sbuf.addr, 16, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, swr).is_ok());
  Cqe rcqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_TRUE(rcqe.has_imm);
  EXPECT_EQ(rcqe.imm, 0xABCD1234u);
}

TEST_F(RnicTest, SendWithoutRecvRetriesUntilRecvPosted) {
  auto [qa, qb] = connect_pair();
  auto sbuf = make_buf(*ctx_a_, pd_a_, 64);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 64);
  SendWr swr;
  swr.opcode = WrOpcode::send;
  swr.sge = {{sbuf.addr, 16, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, swr).is_ok());
  // Run a while: no recv posted, so no completion yet (RNR retry loop).
  world_.loop().run_until(world_.loop().now() + sim::msec(1));
  Cqe cqe;
  EXPECT_EQ(ctx_a_->poll_cq(cq_a_, {&cqe, 1}), 0);
  // Now post the recv; the retry delivers it.
  RecvWr rwr;
  rwr.sge = {{rbuf.addr, 64, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  Cqe rcqe = wait_cqe(*ctx_b_, cq_b_, sim::msec(50));
  EXPECT_EQ(rcqe.status, CqeStatus::success);
}

TEST_F(RnicTest, UnsignaledSendProducesNoCqe) {
  auto [qa, qb] = connect_pair();
  auto sbuf = make_buf(*ctx_a_, pd_a_, 64);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 64);
  RecvWr rwr;
  rwr.sge = {{rbuf.addr, 64, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr swr;
  swr.opcode = WrOpcode::send;
  swr.signaled = false;
  swr.sge = {{sbuf.addr, 16, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, swr).is_ok());
  wait_cqe(*ctx_b_, cq_b_);  // receive side completes
  Cqe cqe;
  EXPECT_EQ(ctx_a_->poll_cq(cq_a_, {&cqe, 1}), 0);
}

// ---------------------------------------------------------------------------
// One-sided WRITE / READ / ATOMIC
// ---------------------------------------------------------------------------

TEST_F(RnicTest, RdmaWrite) {
  auto [qa, qb] = connect_pair();
  const std::size_t size = 2 * 4096 + 17;
  auto src = make_buf(*ctx_a_, pd_a_, size);
  auto dst = make_buf(*ctx_b_, pd_b_, size);
  fill_pattern(*proc_a_, src.addr, size, 42);

  SendWr wr;
  wr.wr_id = 5;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, static_cast<std::uint32_t>(size), src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.status, CqeStatus::success);
  EXPECT_EQ(cqe.opcode, CqeOpcode::rdma_write);
  expect_pattern(*proc_b_, dst.addr, size, 42);
  // One-sided: no CQE on the passive side.
  Cqe none;
  EXPECT_EQ(ctx_b_->poll_cq(cq_b_, {&none, 1}), 0);
}

TEST_F(RnicTest, RdmaWriteDirtiesTargetPages) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 4096);
  auto dst = make_buf(*ctx_b_, pd_b_, 4096);
  proc_b_->mem().collect_dirty();  // clear
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, 100, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  wait_cqe(*ctx_a_, cq_a_);
  // The NIC dirtied the page behind the application's back: this is what
  // pre-copy must chase during migration.
  EXPECT_EQ(proc_b_->mem().collect_dirty().size(), 1u);
}

TEST_F(RnicTest, RdmaWriteWithImmConsumesRecv) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 64);
  auto dst = make_buf(*ctx_b_, pd_b_, 64);
  RecvWr rwr;
  rwr.wr_id = 31;
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write_with_imm;
  wr.imm = 77;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, 32, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe rcqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_EQ(rcqe.wr_id, 31u);
  EXPECT_TRUE(rcqe.has_imm);
  EXPECT_EQ(rcqe.imm, 77u);
  EXPECT_EQ(rcqe.byte_len, 32u);
  wait_cqe(*ctx_a_, cq_a_);
}

TEST_F(RnicTest, RdmaRead) {
  auto [qa, qb] = connect_pair();
  const std::size_t size = 4096 + 100;
  auto local = make_buf(*ctx_a_, pd_a_, size);
  auto remote = make_buf(*ctx_b_, pd_b_, size);
  fill_pattern(*proc_b_, remote.addr, size, 99);

  SendWr wr;
  wr.opcode = WrOpcode::rdma_read;
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.sge = {{local.addr, static_cast<std::uint32_t>(size), local.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.opcode, CqeOpcode::rdma_read);
  EXPECT_EQ(cqe.byte_len, size);
  expect_pattern(*proc_a_, local.addr, size, 99);
}

TEST_F(RnicTest, AtomicFetchAndAdd) {
  auto [qa, qb] = connect_pair();
  auto local = make_buf(*ctx_a_, pd_a_, 4096);
  auto remote = make_buf(*ctx_b_, pd_b_, 4096);
  std::uint64_t initial = 1000;
  ASSERT_TRUE(proc_b_->mem()
                  .write(remote.addr, {reinterpret_cast<std::uint8_t*>(&initial), 8})
                  .is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::atomic_fetch_and_add;
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.compare_add = 5;
  wr.sge = {{local.addr, 8, local.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.opcode, CqeOpcode::atomic);
  // Original value lands in the local SGE.
  std::uint64_t fetched = 0;
  ASSERT_TRUE(proc_a_->mem().read(local.addr, {reinterpret_cast<std::uint8_t*>(&fetched), 8}).is_ok());
  EXPECT_EQ(fetched, 1000u);
  std::uint64_t updated = 0;
  ASSERT_TRUE(proc_b_->mem().read(remote.addr, {reinterpret_cast<std::uint8_t*>(&updated), 8}).is_ok());
  EXPECT_EQ(updated, 1005u);
}

TEST_F(RnicTest, AtomicCompareAndSwap) {
  auto [qa, qb] = connect_pair();
  auto local = make_buf(*ctx_a_, pd_a_, 4096);
  auto remote = make_buf(*ctx_b_, pd_b_, 4096);
  std::uint64_t initial = 7;
  ASSERT_TRUE(proc_b_->mem().write(remote.addr, {reinterpret_cast<std::uint8_t*>(&initial), 8}).is_ok());
  SendWr wr;
  wr.opcode = WrOpcode::atomic_cmp_and_swp;
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.compare_add = 7;   // expected
  wr.swap = 123;        // new value
  wr.sge = {{local.addr, 8, local.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  wait_cqe(*ctx_a_, cq_a_);
  std::uint64_t updated = 0;
  ASSERT_TRUE(proc_b_->mem().read(remote.addr, {reinterpret_cast<std::uint8_t*>(&updated), 8}).is_ok());
  EXPECT_EQ(updated, 123u);

  // Failed CAS leaves memory unchanged.
  wr.compare_add = 7;
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  wait_cqe(*ctx_a_, cq_a_);
  ASSERT_TRUE(proc_b_->mem().read(remote.addr, {reinterpret_cast<std::uint8_t*>(&updated), 8}).is_ok());
  EXPECT_EQ(updated, 123u);
}

TEST_F(RnicTest, BadRkeyFailsTheQp) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 64);
  SendWr wr;
  wr.wr_id = 66;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = 0x1000;
  wr.rkey = 0xBAD;
  wr.sge = {{src.addr, 32, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.wr_id, 66u);
  EXPECT_EQ(cqe.status, CqeStatus::remote_access_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
}

TEST_F(RnicTest, RemoteReadDeniedWithoutAccess) {
  auto [qa, qb] = connect_pair();
  auto local = make_buf(*ctx_a_, pd_a_, 64);
  auto remote = make_buf(*ctx_b_, pd_b_, 64, kAccessLocalWrite);  // no remote read
  SendWr wr;
  wr.opcode = WrOpcode::rdma_read;
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.sge = {{local.addr, 32, local.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.status, CqeStatus::remote_access_err);
}

TEST_F(RnicTest, WriteOutOfBoundsDenied) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 8192);
  auto dst = make_buf(*ctx_b_, pd_b_, 4096);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr + 4000;  // runs past the MR
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, 200, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.status, CqeStatus::remote_access_err);
}

// ---------------------------------------------------------------------------
// Ordering, loss recovery
// ---------------------------------------------------------------------------

TEST_F(RnicTest, CompletionsInPostingOrder) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 1 << 20);
  auto dst = make_buf(*ctx_b_, pd_b_, 1 << 20);
  for (std::uint64_t i = 0; i < 32; ++i) {
    SendWr wr;
    wr.wr_id = i;
    wr.opcode = WrOpcode::rdma_write;
    wr.remote_addr = dst.addr + i * 1024;
    wr.rkey = dst.mr.rkey;
    wr.sge = {{src.addr + i * 1024, 1024, src.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
    ASSERT_EQ(cqe.wr_id, i);
  }
}

TEST_F(RnicTest, LossRecoveryDeliversEverythingInOrder) {
  world_.fabric().set_faults(net::Faults{.data_loss_prob = 0.05});
  auto [qa, qb] = connect_pair(QpCaps{.max_send_wr = 256, .max_recv_wr = 256});
  auto sbuf = make_buf(*ctx_a_, pd_a_, 256 * 512);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 256 * 512);
  // 100 sends, wr_id carries the sequence; receiver must see 0..99 in order.
  for (std::uint64_t i = 0; i < 100; ++i) {
    RecvWr rwr;
    rwr.wr_id = i;
    rwr.sge = {{rbuf.addr + i * 512, 512, rbuf.mr.lkey}};
    ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> marker(8);
    std::memcpy(marker.data(), &i, 8);
    ASSERT_TRUE(proc_a_->mem().write(sbuf.addr + i * 512, marker).is_ok());
    SendWr wr;
    wr.wr_id = i;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sbuf.addr + i * 512, 512, sbuf.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    Cqe cqe = wait_cqe(*ctx_b_, cq_b_, sim::sec(5));
    ASSERT_EQ(cqe.status, CqeStatus::success);
    ASSERT_EQ(cqe.wr_id, i) << "out of order or lost";
    std::uint64_t marker = 0;
    ASSERT_TRUE(proc_b_->mem().read(rbuf.addr + i * 512, {reinterpret_cast<std::uint8_t*>(&marker), 8}).is_ok());
    ASSERT_EQ(marker, i) << "content corrupted";
  }
  EXPECT_GT(dev_a_->counters().retransmits + dev_b_->counters().out_of_sequence, 0u);
}

TEST_F(RnicTest, PartitionExhaustsRetriesAndErrorsQp) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 64);
  auto dst = make_buf(*ctx_b_, pd_b_, 64);
  world_.fabric().set_partitioned(2, true);
  Qpn errored = 0;
  ctx_a_->set_qp_error_handler([&](Qpn q) { errored = q; });
  SendWr wr;
  wr.wr_id = 1;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, 32, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  // 7 retries x 50 ms timeout before the QP gives up.
  world_.loop().run_until(world_.loop().now() + sim::msec(500));
  EXPECT_EQ(errored, qa);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
  Cqe cqe;
  ASSERT_EQ(ctx_a_->poll_cq(cq_a_, {&cqe, 1}), 1);
  EXPECT_EQ(cqe.status, CqeStatus::retry_exceeded);
}

// ---------------------------------------------------------------------------
// SRQ, UD, completion channels, MW, DM
// ---------------------------------------------------------------------------

TEST_F(RnicTest, SrqSharedAcrossQps) {
  Handle srq = ctx_b_->create_srq(pd_b_, 64).value();
  QpInitAttr attr_b{QpType::rc, pd_b_, cq_b_, cq_b_, srq, {}};
  QpInitAttr attr_a{QpType::rc, pd_a_, cq_a_, cq_a_, 0, {}};
  Qpn qb1 = ctx_b_->create_qp(attr_b).value();
  Qpn qb2 = ctx_b_->create_qp(attr_b).value();
  Qpn qa1 = ctx_a_->create_qp(attr_a).value();
  Qpn qa2 = ctx_a_->create_qp(attr_a).value();
  ASSERT_TRUE(rc_connect(*ctx_a_, qa1, *ctx_b_, qb1).is_ok());
  ASSERT_TRUE(rc_connect(*ctx_a_, qa2, *ctx_b_, qb2).is_ok());

  auto sbuf = make_buf(*ctx_a_, pd_a_, 4096);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 4096);
  for (int i = 0; i < 2; ++i) {
    RecvWr rwr;
    rwr.wr_id = 70 + static_cast<std::uint64_t>(i);
    rwr.sge = {{rbuf.addr + static_cast<std::uint64_t>(i) * 1024, 1024, rbuf.mr.lkey}};
    ASSERT_TRUE(ctx_b_->post_srq_recv(srq, rwr).is_ok());
  }
  // Posting directly to a QP that uses an SRQ is an error.
  EXPECT_EQ(ctx_b_->post_recv(qb1, RecvWr{}).code(), Errc::invalid_argument);

  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sbuf.addr, 128, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa1, wr).is_ok());
  ASSERT_TRUE(ctx_a_->post_send(qa2, wr).is_ok());
  Cqe c1 = wait_cqe(*ctx_b_, cq_b_);
  Cqe c2 = wait_cqe(*ctx_b_, cq_b_);
  // Both QPs delivered, each consuming one SRQ WQE; CQE carries the QPN.
  EXPECT_NE(c1.qpn, c2.qpn);
  EXPECT_TRUE((c1.qpn == qb1 && c2.qpn == qb2) || (c1.qpn == qb2 && c2.qpn == qb1));
}

TEST_F(RnicTest, UdSendRecvCarriesSrcQp) {
  QpInitAttr attr_a{QpType::ud, pd_a_, cq_a_, cq_a_, 0, {}};
  QpInitAttr attr_b{QpType::ud, pd_b_, cq_b_, cq_b_, 0, {}};
  Qpn qa = ctx_a_->create_qp(attr_a).value();
  Qpn qb = ctx_b_->create_qp(attr_b).value();
  ASSERT_TRUE(ctx_a_->modify_qp_init(qa).is_ok());
  ASSERT_TRUE(ctx_a_->modify_qp_rtr(qa, 0, 0, 0).is_ok());
  ASSERT_TRUE(ctx_a_->modify_qp_rts(qa, 0).is_ok());
  ASSERT_TRUE(ctx_b_->modify_qp_init(qb).is_ok());
  ASSERT_TRUE(ctx_b_->modify_qp_rtr(qb, 0, 0, 0).is_ok());
  ASSERT_TRUE(ctx_b_->modify_qp_rts(qb, 0).is_ok());

  auto sbuf = make_buf(*ctx_a_, pd_a_, 4096);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 4096);
  RecvWr rwr;
  rwr.sge = {{rbuf.addr, 4096, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());

  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.remote_host = 2;
  wr.remote_qpn = qb;
  wr.sge = {{sbuf.addr, 256, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  Cqe scqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(scqe.status, CqeStatus::success);
  Cqe rcqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_EQ(rcqe.src_qp, qa);
  EXPECT_EQ(rcqe.byte_len, 256u);
}

TEST_F(RnicTest, UdOversizeMessageRejected) {
  QpInitAttr attr{QpType::ud, pd_a_, cq_a_, cq_a_, 0, {}};
  Qpn qa = ctx_a_->create_qp(attr).value();
  ASSERT_TRUE(ctx_a_->modify_qp_init(qa).is_ok());
  ASSERT_TRUE(ctx_a_->modify_qp_rtr(qa, 0, 0, 0).is_ok());
  ASSERT_TRUE(ctx_a_->modify_qp_rts(qa, 0).is_ok());
  auto sbuf = make_buf(*ctx_a_, pd_a_, 8192);
  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.remote_host = 2;
  wr.remote_qpn = 1;
  wr.sge = {{sbuf.addr, 8000, sbuf.mr.lkey}};
  EXPECT_EQ(ctx_a_->post_send(qa, wr).code(), Errc::invalid_argument);
}

TEST_F(RnicTest, CompletionChannelEventOnArm) {
  Handle ch = ctx_b_->create_comp_channel().value();
  Handle cq = ctx_b_->create_cq(64, ch).value();
  QpInitAttr attr_b{QpType::rc, pd_b_, cq, cq, 0, {}};
  QpInitAttr attr_a{QpType::rc, pd_a_, cq_a_, cq_a_, 0, {}};
  Qpn qb = ctx_b_->create_qp(attr_b).value();
  Qpn qa = ctx_a_->create_qp(attr_a).value();
  ASSERT_TRUE(rc_connect(*ctx_a_, qa, *ctx_b_, qb).is_ok());

  auto sbuf = make_buf(*ctx_a_, pd_a_, 64);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 64);
  RecvWr rwr;
  rwr.sge = {{rbuf.addr, 64, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  ASSERT_TRUE(ctx_b_->req_notify_cq(cq).is_ok());
  EXPECT_FALSE(ctx_b_->get_cq_event(ch).has_value());

  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{sbuf.addr, 16, sbuf.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::msec(1));

  auto ev = ctx_b_->get_cq_event(ch);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(*ev, cq);
  ctx_b_->ack_cq_events(ch, 1);
  // One event per arm: a second completion without re-arming emits nothing.
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  world_.loop().run_until(world_.loop().now() + sim::msec(1));
  EXPECT_FALSE(ctx_b_->get_cq_event(ch).has_value());
}

TEST_F(RnicTest, MemoryWindowBindAndRemoteUse) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 4096);
  auto dst = make_buf(*ctx_b_, pd_b_, 8192,
                      kAccessLocalWrite | kAccessRemoteWrite | kAccessMwBind);
  Handle mw = ctx_b_->alloc_mw(pd_b_).value();
  // Window covers only the second KB of the MR.
  auto rkey = ctx_b_->bind_mw(qb, mw, dst.mr.lkey, dst.addr + 1024, 1024,
                              kAccessRemoteWrite, /*wr_id=*/500);
  ASSERT_TRUE(rkey.is_ok());
  Cqe bind_cqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_EQ(bind_cqe.opcode, CqeOpcode::bind_mw);
  EXPECT_EQ(bind_cqe.wr_id, 500u);

  // Write inside the window: ok.
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr + 1024;
  wr.rkey = rkey.value();
  wr.sge = {{src.addr, 512, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_EQ(wait_cqe(*ctx_a_, cq_a_).status, CqeStatus::success);

  // Write outside the window with the MW rkey: remote access error.
  wr.remote_addr = dst.addr;  // before the window
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_EQ(wait_cqe(*ctx_a_, cq_a_).status, CqeStatus::remote_access_err);
}

TEST_F(RnicTest, MwBindRequiresMwBindAccessOnMr) {
  auto [qa, qb] = connect_pair();
  auto dst = make_buf(*ctx_b_, pd_b_, 4096, kAccessLocalWrite | kAccessRemoteWrite);
  Handle mw = ctx_b_->alloc_mw(pd_b_).value();
  auto rkey = ctx_b_->bind_mw(qb, mw, dst.mr.lkey, dst.addr, 1024, kAccessRemoteWrite, 1);
  EXPECT_EQ(rkey.code(), Errc::permission_denied);
}

TEST_F(RnicTest, DeviceMemoryAllocMapAndUse) {
  const std::uint64_t dm_size = 8192;
  auto dm = ctx_a_->alloc_dm(dm_size);
  ASSERT_TRUE(dm.is_ok());
  EXPECT_TRUE(proc_a_->mem().mapped(dm->mapped_at, dm_size));
  // Register an MR over the on-chip memory and use it as a send source.
  auto mr = ctx_a_->reg_mr(pd_a_, dm->mapped_at, dm_size, kAccessLocalWrite);
  ASSERT_TRUE(mr.is_ok());
  EXPECT_LT(dev_a_->device_memory_free(), dev_a_->config().device_memory_bytes);
  ASSERT_TRUE(ctx_a_->free_dm(dm->handle).is_ok());
  EXPECT_EQ(dev_a_->device_memory_free(), dev_a_->config().device_memory_bytes);
}

TEST_F(RnicTest, DeviceMemoryExhaustion) {
  auto r1 = ctx_a_->alloc_dm(dev_a_->config().device_memory_bytes);
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(ctx_a_->alloc_dm(4096).code(), Errc::resource_exhausted);
}

// ---------------------------------------------------------------------------
// Port counters
// ---------------------------------------------------------------------------

TEST_F(RnicTest, PortCountersTrackBytes) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 1 << 16);
  auto dst = make_buf(*ctx_b_, pd_b_, 1 << 16);
  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, 1 << 16, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  wait_cqe(*ctx_a_, cq_a_);
  EXPECT_GE(dev_a_->counters().tx_bytes, 1u << 16);
  EXPECT_GE(dev_b_->counters().rx_bytes, 1u << 16);
}

TEST_F(RnicTest, NSentNRecvCountersForWbs) {
  auto [qa, qb] = connect_pair();
  auto sbuf = make_buf(*ctx_a_, pd_a_, 4096);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 4096);
  for (int i = 0; i < 3; ++i) {
    RecvWr rwr;
    rwr.sge = {{rbuf.addr, 1024, rbuf.mr.lkey}};
    ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  }
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.opcode = WrOpcode::send;
    wr.sge = {{sbuf.addr, 64, sbuf.mr.lkey}};
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  }
  world_.loop().run_until(world_.loop().now() + sim::msec(1));
  EXPECT_EQ(ctx_a_->find_qp(qa)->n_sent, 2u);
  EXPECT_EQ(ctx_b_->find_qp(qb)->n_recv, 2u);
  // One RECV remains posted with no matching send: an "inflight RECV" that
  // wait-before-stop must replay after migration (§3.4).
  EXPECT_EQ(ctx_b_->find_qp(qb)->rq.size(), 1u);
}

// ---------------------------------------------------------------------------
// Responder memory faults: an MR can outlive its memory (free_dm unmaps the
// device memory an MR still covers). The failed access must not complete as
// a success.
// ---------------------------------------------------------------------------

class RnicResponderFaultTest : public RnicTest {
 protected:
  /// An MR over one page of device memory on host b, filled with `seed`'s
  /// pattern. free_dm() then unmaps the memory under it.
  Mr dm_mr(std::uint8_t seed) {
    auto dm = ctx_b_->alloc_dm(proc::kPageSize);
    EXPECT_TRUE(dm.is_ok());
    dm_ = dm.value();
    auto mr = ctx_b_->reg_mr(pd_b_, dm_.mapped_at, proc::kPageSize,
                             kAccessLocalWrite | kAccessRemoteWrite | kAccessRemoteRead |
                                 kAccessRemoteAtomic);
    EXPECT_TRUE(mr.is_ok());
    fill_pattern(*proc_b_, dm_.mapped_at, proc::kPageSize, seed);
    return mr.value();
  }
  void free_dm() {
    ASSERT_TRUE(ctx_b_->free_dm(dm_.handle).is_ok());
    ASSERT_FALSE(proc_b_->mem().mapped(dm_.mapped_at, 1));
  }
  DeviceMemory dm_;
};

TEST_F(RnicResponderFaultTest, ReadThroughAnMrWhoseMemoryIsGoneFailsRemotely) {
  auto [qa, qb] = connect_pair();
  auto local = make_buf(*ctx_a_, pd_a_, proc::kPageSize);
  const Mr mr = dm_mr(9);
  SendWr wr;
  wr.wr_id = 1;
  wr.opcode = WrOpcode::rdma_read;
  wr.remote_addr = dm_.mapped_at;
  wr.rkey = mr.rkey;
  wr.sge = {{local.addr, static_cast<std::uint32_t>(proc::kPageSize), local.mr.lkey}};
  // A normal READ first: its response block goes back to the pool with the
  // page's bytes in it.
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  EXPECT_EQ(wait_cqe(*ctx_a_, cq_a_).status, CqeStatus::success);
  expect_pattern(*proc_a_, local.addr, proc::kPageSize, 9);

  free_dm();
  fill_pattern(*proc_a_, local.addr, proc::kPageSize, 1);
  wr.wr_id = 2;
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  const Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.wr_id, 2u);
  EXPECT_EQ(cqe.status, CqeStatus::remote_access_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
  expect_pattern(*proc_a_, local.addr, proc::kPageSize, 1);  // nothing landed
}

TEST_F(RnicResponderFaultTest, WriteThroughAnMrWhoseMemoryIsGoneFailsRemotely) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, proc::kPageSize);
  const Mr mr = dm_mr(9);
  free_dm();
  SendWr wr;
  wr.wr_id = 3;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dm_.mapped_at;
  wr.rkey = mr.rkey;
  wr.sge = {{src.addr, static_cast<std::uint32_t>(proc::kPageSize), src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  const Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.wr_id, 3u);
  EXPECT_EQ(cqe.status, CqeStatus::remote_access_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
}

TEST_F(RnicResponderFaultTest, AtomicThroughAnMrWhoseMemoryIsGoneFailsRemotely) {
  auto [qa, qb] = connect_pair();
  auto local = make_buf(*ctx_a_, pd_a_, proc::kPageSize);
  const Mr mr = dm_mr(9);
  free_dm();
  SendWr wr;
  wr.wr_id = 4;
  wr.opcode = WrOpcode::atomic_fetch_and_add;
  wr.remote_addr = dm_.mapped_at;
  wr.rkey = mr.rkey;
  wr.compare_add = 1;
  wr.sge = {{local.addr, 8, local.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  const Cqe cqe = wait_cqe(*ctx_a_, cq_a_);
  EXPECT_EQ(cqe.wr_id, 4u);
  EXPECT_EQ(cqe.status, CqeStatus::remote_access_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
}

TEST_F(RnicResponderFaultTest, SendIntoABufferWhoseMemoryIsGoneFailsTheRecv) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, proc::kPageSize);
  const Mr mr = dm_mr(9);
  RecvWr rwr;
  rwr.wr_id = 5;
  rwr.sge = {{dm_.mapped_at, static_cast<std::uint32_t>(proc::kPageSize), mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, rwr).is_ok());
  free_dm();
  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.sge = {{src.addr, 64, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  const Cqe cqe = wait_cqe(*ctx_b_, cq_b_);
  EXPECT_EQ(cqe.wr_id, 5u);
  EXPECT_EQ(cqe.opcode, CqeOpcode::recv);
  EXPECT_EQ(cqe.status, CqeStatus::local_protection_err);
  EXPECT_EQ(ctx_b_->query_qp_state(qb).value(), QpState::err);
}

// Requester-side landing faults: the local buffer of a READ or an atomic
// goes away (free_dm) while its response is on the wire. The response cannot
// land, so the WQE must not complete as a success: it fails with a local
// protection error and the QP moves to error, flushing the WQEs behind it.
// The WQEs ahead complete, since the response implies their ACK.
class RnicRequesterFaultTest : public RnicTest {
 protected:
  /// A locally writable MR over one page of device memory on host a.
  Mr local_dm_mr() {
    auto dm = ctx_a_->alloc_dm(proc::kPageSize);
    EXPECT_TRUE(dm.is_ok());
    dm_ = dm.value();
    auto mr = ctx_a_->reg_mr(pd_a_, dm_.mapped_at, proc::kPageSize, kAccessLocalWrite);
    EXPECT_TRUE(mr.is_ok());
    return mr.value();
  }
  void free_dm() { ASSERT_TRUE(ctx_a_->free_dm(dm_.handle).is_ok()); }

  /// Post WRITE(ahead) + `wr` + WRITE(behind), free the DM under `wr`'s
  /// buffer, and collect the three completions.
  std::vector<Cqe> run_between_writes(Qpn qa, SendWr wr) {
    auto src = make_buf(*ctx_a_, pd_a_, proc::kPageSize);
    auto dst = make_buf(*ctx_b_, pd_b_, proc::kPageSize);
    SendWr write;
    write.opcode = WrOpcode::rdma_write;
    write.remote_addr = dst.addr;
    write.rkey = dst.mr.rkey;
    write.sge = {{src.addr, 512, src.mr.lkey}};
    write.wr_id = 10;
    EXPECT_TRUE(ctx_a_->post_send(qa, write).is_ok());
    EXPECT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
    write.wr_id = 12;
    EXPECT_TRUE(ctx_a_->post_send(qa, write).is_ok());
    free_dm();
    std::vector<Cqe> cqes;
    for (int i = 0; i < 3; ++i) cqes.push_back(wait_cqe(*ctx_a_, cq_a_));
    return cqes;
  }
  DeviceMemory dm_;
};

TEST_F(RnicRequesterFaultTest, ReadResponseIntoABufferWhoseMemoryIsGoneFailsLocally) {
  auto [qa, qb] = connect_pair();
  auto remote = make_buf(*ctx_b_, pd_b_, proc::kPageSize);
  fill_pattern(*proc_b_, remote.addr, proc::kPageSize, 3);
  const Mr mr = local_dm_mr();
  SendWr wr;
  wr.wr_id = 11;
  wr.opcode = WrOpcode::rdma_read;
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.sge = {{dm_.mapped_at, static_cast<std::uint32_t>(proc::kPageSize), mr.lkey}};
  const std::vector<Cqe> cqes = run_between_writes(qa, wr);
  EXPECT_EQ(cqes[0].wr_id, 10u);
  EXPECT_EQ(cqes[0].status, CqeStatus::success);
  EXPECT_EQ(cqes[1].wr_id, 11u);
  EXPECT_EQ(cqes[1].status, CqeStatus::local_protection_err);
  EXPECT_EQ(cqes[1].opcode, CqeOpcode::rdma_read);
  EXPECT_EQ(cqes[2].wr_id, 12u);
  EXPECT_EQ(cqes[2].status, CqeStatus::wr_flush_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
}

TEST_F(RnicRequesterFaultTest, AtomicResponseIntoABufferWhoseMemoryIsGoneFailsLocally) {
  auto [qa, qb] = connect_pair();
  auto remote = make_buf(*ctx_b_, pd_b_, proc::kPageSize);
  const Mr mr = local_dm_mr();
  SendWr wr;
  wr.wr_id = 11;
  wr.opcode = WrOpcode::atomic_fetch_and_add;
  wr.remote_addr = remote.addr;
  wr.rkey = remote.mr.rkey;
  wr.compare_add = 1;
  wr.sge = {{dm_.mapped_at, 8, mr.lkey}};
  const std::vector<Cqe> cqes = run_between_writes(qa, wr);
  EXPECT_EQ(cqes[0].wr_id, 10u);
  EXPECT_EQ(cqes[0].status, CqeStatus::success);
  EXPECT_EQ(cqes[1].wr_id, 11u);
  EXPECT_EQ(cqes[1].status, CqeStatus::local_protection_err);
  EXPECT_EQ(cqes[2].wr_id, 12u);
  EXPECT_EQ(cqes[2].status, CqeStatus::wr_flush_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
}

// A local DMA fault at emission: the second packet of a two-packet WRITE
// reads a page of device memory freed before it leaves. That WRITE
// completes with a local protection error; the WRITE ahead of it, still
// unacknowledged, and the one behind it are flushed.
TEST_F(RnicRequesterFaultTest, WriteFromMemoryFreedBeforeItLeavesFailsLocally) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, proc::kPageSize);
  auto dst = make_buf(*ctx_b_, pd_b_, 4 * proc::kPageSize);
  const Mr mr = local_dm_mr();
  // Leave the control-command window, so the QP is alone in the rotation
  // and may burst: the fault then ends a burst after its first packet.
  world_.loop().run_until(dev_a_->ctrl_pressure_until());
  SendWr write;
  write.opcode = WrOpcode::rdma_write;
  write.remote_addr = dst.addr;
  write.rkey = dst.mr.rkey;
  write.wr_id = 10;
  write.sge = {{src.addr, 512, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, write).is_ok());
  write.wr_id = 11;
  write.sge = {{src.addr, static_cast<std::uint32_t>(proc::kPageSize), src.mr.lkey},
               {dm_.mapped_at, static_cast<std::uint32_t>(proc::kPageSize), mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, write).is_ok());
  write.wr_id = 12;
  write.sge = {{src.addr, 512, src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, write).is_ok());
  free_dm();
  std::vector<Cqe> cqes;
  for (int i = 0; i < 3; ++i) cqes.push_back(wait_cqe(*ctx_a_, cq_a_));
  EXPECT_EQ(cqes[0].wr_id, 10u);
  EXPECT_EQ(cqes[0].status, CqeStatus::wr_flush_err);
  EXPECT_EQ(cqes[1].wr_id, 11u);
  EXPECT_EQ(cqes[1].status, CqeStatus::local_protection_err);
  EXPECT_EQ(cqes[1].opcode, CqeOpcode::rdma_write);
  EXPECT_EQ(cqes[2].wr_id, 12u);
  EXPECT_EQ(cqes[2].status, CqeStatus::wr_flush_err);
  EXPECT_EQ(ctx_a_->query_qp_state(qa).value(), QpState::err);
  EXPECT_EQ(world_.fabric().stats(1).data_packets_tx, 2u);  // WRITE 10, then 11's first
}

// ---------------------------------------------------------------------------
// Transmit bursts: an RC QP alone in the transmit rotation emits up to 64
// packets of one WQE in one pump slot; beside a busy QP, each of its
// packets takes a slot of its own.
// ---------------------------------------------------------------------------

class RnicBurstTest : public RnicTest {
 protected:
  static constexpr std::uint32_t kBytes = 256 * 1024;  // 64 MTU-sized packets

  void SetUp() override {
    RnicTest::SetUp();
    rec_.set_enabled(true);
    world_.fabric().set_recorder(&rec_);
  }
  void TearDown() override { world_.fabric().set_recorder(nullptr); }

  SendWr write_wr(const Buf& src, const Buf& dst, std::uint32_t bytes, std::uint64_t wr_id) {
    SendWr wr;
    wr.wr_id = wr_id;
    wr.opcode = WrOpcode::rdma_write;
    wr.remote_addr = dst.addr;
    wr.rkey = dst.mr.rkey;
    wr.sge = {{src.addr, bytes, src.mr.lkey}};
    return wr;
  }

  /// Leave the control-command window the setup opened on both NICs.
  void settle() {
    world_.loop().run_until(
        std::max(dev_a_->ctrl_pressure_until(), dev_b_->ctrl_pressure_until()));
  }

  /// Admission instants of the request packets addressed to `dst_qpn`.
  std::vector<sim::TimeNs> admissions(Qpn dst_qpn) const {
    std::vector<sim::TimeNs> out;
    for (const obs::PacketRecord& r : rec_.records(1)) {
      if (r.qpn == dst_qpn) out.push_back(r.ts_ns);
    }
    return out;
  }

  /// Runs one nanosecond at a time until a CQE shows up on host a's CQ;
  /// returns it and the instants at which host b's NIC took in a packet.
  std::pair<Cqe, std::vector<sim::TimeNs>> step_until_cqe() {
    std::vector<sim::TimeNs> arrivals;
    std::uint64_t seen = dev_b_->counters().rx_packets;
    Cqe cqe;
    const sim::TimeNs deadline = world_.loop().now() + sim::msec(1);
    while (ctx_a_->poll_cq(cq_a_, {&cqe, 1}) == 0 && world_.loop().now() < deadline) {
      world_.loop().run_until(world_.loop().now() + 1);
      for (; seen < dev_b_->counters().rx_packets; ++seen) arrivals.push_back(world_.loop().now());
    }
    return {cqe, arrivals};
  }

  obs::FlightRecorder rec_{1024};
};

TEST_F(RnicBurstTest, LoneWriteLeavesInOneSlot) {
  auto [qa, qb] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, kBytes);
  auto dst = make_buf(*ctx_b_, pd_b_, kBytes);
  settle();
  const sim::TimeNs t0 = world_.loop().now();
  const std::uint64_t events0 = world_.loop().events_dispatched();
  ASSERT_TRUE(ctx_a_->post_send(qa, write_wr(src, dst, kBytes, 1)).is_ok());
  const auto [cqe, arrivals] = step_until_cqe();
  EXPECT_EQ(cqe.status, CqeStatus::success);
  world_.loop().run();

  const std::vector<sim::TimeNs> sent = admissions(qb);
  ASSERT_EQ(sent.size(), 64u);
  for (sim::TimeNs at : sent) EXPECT_EQ(at, t0);  // one pump slot
  // Back to back on the wire: 4,225 B frames (4 KiB + 71 B header + 58 B
  // framing) serialize in 338 ns at 100 Gbps, then 2 us of propagation.
  ASSERT_EQ(arrivals.size(), 64u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - t0, static_cast<sim::TimeNs>(2000 + 338 * (i + 1))) << i;
  }
  // One pump slot, 64 arrivals, 5 ACKs (every 16th PSN and the last) and
  // the retransmit timer, which lapses.
  EXPECT_EQ(world_.loop().events_dispatched() - events0, 71u);
}

TEST_F(RnicBurstTest, BusyRotationGivesEveryPacketItsOwnSlot) {
  auto [qa, qb] = connect_pair();
  auto [qa2, qb2] = connect_pair();
  auto src = make_buf(*ctx_a_, pd_a_, 2 * kBytes);
  auto dst = make_buf(*ctx_b_, pd_b_, 2 * kBytes);
  settle();
  ASSERT_TRUE(ctx_a_->post_send(qa2, write_wr(src, dst, 2 * kBytes, 2)).is_ok());
  ASSERT_TRUE(ctx_a_->post_send(qa, write_wr(src, dst, kBytes, 1)).is_ok());
  world_.loop().run();
  Cqe cqes[2];
  ASSERT_EQ(ctx_a_->poll_cq(cq_a_, cqes), 2);
  EXPECT_EQ(cqes[0].status, CqeStatus::success);
  EXPECT_EQ(cqes[1].status, CqeStatus::success);

  const std::vector<sim::TimeNs> sent = admissions(qb);
  ASSERT_EQ(sent.size(), 64u);
  for (std::size_t i = 1; i < sent.size(); ++i) EXPECT_LT(sent[i - 1], sent[i]) << i;
  // The busy QP's packets take the slots in between.
  const std::vector<sim::TimeNs> busy = admissions(qb2);
  ASSERT_EQ(busy.size(), 128u);
  for (std::size_t i = 1; i < sent.size(); ++i) {
    EXPECT_EQ(std::count_if(busy.begin(), busy.end(),
                            [&](sim::TimeNs at) { return at > sent[i - 1] && at < sent[i]; }),
              1)
        << i;
  }
}

// ---------------------------------------------------------------------------
// Landing: a whole page-aligned packet block changes hands instead of being
// copied (AddressSpace::write(VirtAddr, PayloadRef&&)).
// ---------------------------------------------------------------------------

class RnicLandingTest : public RnicTest {
 protected:
  std::vector<const std::uint8_t*> page_blocks(proc::SimProcess& p, proc::VirtAddr addr,
                                               std::size_t pages) {
    std::vector<const std::uint8_t*> out;
    for (std::size_t i = 0; i < pages; ++i) {
      out.push_back(p.mem().page_at(addr + i * proc::kPageSize)->data());
    }
    return out;
  }
};

TEST_F(RnicLandingTest, LandedPagesShareTheirBlocksWithNoOne) {
  auto [qa, qb] = connect_pair();
  constexpr std::size_t kPages = 8;
  const std::size_t size = kPages * proc::kPageSize;
  auto src = make_buf(*ctx_a_, pd_a_, size);
  auto dst = make_buf(*ctx_b_, pd_b_, size);
  fill_pattern(*proc_a_, src.addr, size, 42);
  fill_pattern(*proc_b_, dst.addr, size, 0);  // written pages: a landing swaps one for one
  const auto displaced = page_blocks(*proc_b_, dst.addr, kPages);

  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, static_cast<std::uint32_t>(size), src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  ASSERT_EQ(wait_cqe(*ctx_a_, cq_a_).status, CqeStatus::success);
  expect_pattern(*proc_b_, dst.addr, size, 42);
  const auto landed = page_blocks(*proc_b_, dst.addr, kPages);
  for (std::size_t i = 0; i < kPages; ++i) {
    EXPECT_NE(landed[i], displaced[i]) << "page " << i << " was copied, not handed over";
  }

  // Each side sees only its own writes.
  fill_pattern(*proc_a_, src.addr, size, 7);
  expect_pattern(*proc_b_, dst.addr, size, 42);
  fill_pattern(*proc_b_, dst.addr, size, 99);
  expect_pattern(*proc_a_, src.addr, size, 7);
  expect_pattern(*proc_b_, dst.addr, size, 99);

  // No block backs two pages, the blocks the next packets take are no page
  // of either side, and each displaced page is a page again (a later packet
  // of the WRITE took it from the pool) or waits in the pool.
  std::set<const std::uint8_t*> pages;
  for (const auto* b : page_blocks(*proc_a_, src.addr, kPages)) pages.insert(b);
  for (const auto* b : page_blocks(*proc_b_, dst.addr, kPages)) pages.insert(b);
  EXPECT_EQ(pages.size(), 2 * kPages);
  std::set<const std::uint8_t*> next;
  std::vector<common::PayloadRef> taken;
  for (int i = 0; i < 256; ++i) {
    taken.push_back(common::PayloadRef::alloc(proc::kPageSize));
    EXPECT_FALSE(pages.contains(taken.back().data()));
    std::memset(taken.back().mutable_data(), 0xEE, proc::kPageSize);
    next.insert(taken.back().data());
  }
  for (const auto* b : displaced) {
    EXPECT_TRUE(pages.contains(b) || next.contains(b)) << "a displaced page left the pool";
  }
  expect_pattern(*proc_a_, src.addr, size, 7);
  expect_pattern(*proc_b_, dst.addr, size, 99);
}

TEST_F(RnicLandingTest, WholePageWriteIntoAMissingPageFaultsItInFirst) {
  auto [qa, qb] = connect_pair();
  const std::size_t size = 2 * proc::kPageSize;
  auto src = make_buf(*ctx_a_, pd_a_, size);
  auto dst = make_buf(*ctx_b_, pd_b_, size);
  fill_pattern(*proc_a_, src.addr, size, 42);
  // A post-copy destination: the pages' contents still live on the source.
  // The hook fills them the way PostcopyPump does, through page_at.
  auto& mem = proc_b_->mem();
  std::map<proc::VirtAddr, const std::uint8_t*> faulted;
  mem.set_fault_hook([&](proc::VirtAddr page) {
    const proc::PageBytes bytes = *mem.page_at(page);
    std::fill(bytes.begin(), bytes.end(), 0xAA);
    faulted[page] = bytes.data();
  });
  mem.mark_missing(dst.addr);
  mem.mark_missing(dst.addr + proc::kPageSize);
  (void)mem.collect_dirty();

  SendWr wr;
  wr.opcode = WrOpcode::rdma_write;
  wr.remote_addr = dst.addr;
  wr.rkey = dst.mr.rkey;
  wr.sge = {{src.addr, static_cast<std::uint32_t>(size), src.mr.lkey}};
  ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
  ASSERT_EQ(wait_cqe(*ctx_a_, cq_a_).status, CqeStatus::success);

  ASSERT_EQ(faulted.size(), 2u) << "the landing must fault each page in first";
  EXPECT_EQ(mem.missing_count(), 0u);
  const auto landed = page_blocks(*proc_b_, dst.addr, 2);
  EXPECT_NE(landed[0], faulted[dst.addr]) << "the landing copied instead of handing over";
  EXPECT_NE(landed[1], faulted[dst.addr + proc::kPageSize]);
  EXPECT_EQ(mem.collect_dirty().size(), 2u);
  expect_pattern(*proc_b_, dst.addr, size, 42);  // the source's contents did not win
}

TEST_F(RnicLandingTest, UdDatagramLongerThanItsBufferCompletesInError) {
  QpInitAttr attr_a{QpType::ud, pd_a_, cq_a_, cq_a_, 0, {}};
  QpInitAttr attr_b{QpType::ud, pd_b_, cq_b_, cq_b_, 0, {}};
  Qpn qa = ctx_a_->create_qp(attr_a).value();
  Qpn qb = ctx_b_->create_qp(attr_b).value();
  for (auto [ctx, qpn] : {std::pair{ctx_a_, qa}, std::pair{ctx_b_, qb}}) {
    ASSERT_TRUE(ctx->modify_qp_init(qpn).is_ok());
    ASSERT_TRUE(ctx->modify_qp_rtr(qpn, 0, 0, 0).is_ok());
    ASSERT_TRUE(ctx->modify_qp_rts(qpn, 0).is_ok());
  }
  auto sbuf = make_buf(*ctx_a_, pd_a_, 4096);
  auto rbuf = make_buf(*ctx_b_, pd_b_, 4096);
  fill_pattern(*proc_a_, sbuf.addr, 256, 5);
  RecvWr small;
  small.wr_id = 1;
  small.sge = {{rbuf.addr, 128, rbuf.mr.lkey}};
  RecvWr big;
  big.wr_id = 2;
  big.sge = {{rbuf.addr + 1024, 1024, rbuf.mr.lkey}};
  ASSERT_TRUE(ctx_b_->post_recv(qb, small).is_ok());
  ASSERT_TRUE(ctx_b_->post_recv(qb, big).is_ok());

  SendWr wr;
  wr.opcode = WrOpcode::send;
  wr.remote_host = 2;
  wr.remote_qpn = qb;
  wr.sge = {{sbuf.addr, 256, sbuf.mr.lkey}};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ctx_a_->post_send(qa, wr).is_ok());
    EXPECT_EQ(wait_cqe(*ctx_a_, cq_a_).status, CqeStatus::success);
  }
  world_.loop().run_until(world_.loop().now() + sim::msec(1));

  Cqe cqes[4];
  ASSERT_EQ(ctx_b_->poll_cq(cq_b_, cqes), 2);
  EXPECT_EQ(cqes[0].wr_id, 1u);
  EXPECT_EQ(cqes[0].status, CqeStatus::local_protection_err);
  EXPECT_EQ(cqes[1].wr_id, 2u);
  EXPECT_EQ(cqes[1].status, CqeStatus::success);
  EXPECT_EQ(cqes[1].byte_len, 256u);
  expect_pattern(*proc_b_, rbuf.addr + 1024, 256, 5);
  EXPECT_EQ(ctx_b_->query_qp_state(qb).value(), QpState::rts);
}

}  // namespace
}  // namespace migr::rnic
