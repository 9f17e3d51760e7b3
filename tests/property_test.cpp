// Property-style parameterized sweeps (TEST_P) over the core invariants:
//
//  * transport: for any message size / loss rate / opcode, completions
//    arrive in posting order, exactly once, content intact;
//  * migration: for any QP count / opcode / pre-setup choice, the §5.3
//    correctness criteria hold across a live migration, and the report's
//    blackout components are consistent;
//  * serialization: random RdmaImages and page sets round-trip; mutated
//    images, image payloads and FT epoch frames are rejected or read back;
//  * untrusted frames on live endpoints: mutated post-copy page requests and
//    replies, and mutated TransferMux data and ACK frames, are dropped or
//    handled within what they carry;
//  * address space: random operation sequences agree with a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>

#include "apps/msg_node.hpp"
#include "apps/perftest.hpp"
#include "common/rng.hpp"
#include "criu/checkpoint.hpp"
#include "criu/pagedelta.hpp"
#include "fault/fault.hpp"
#include "migr/migration.hpp"
#include "migr/postcopy.hpp"
#include "migr/xfer.hpp"
#include "net/fabric.hpp"
#include "rnic/wire.hpp"
#include "rnic/world.hpp"

namespace migr {
namespace {

// ---------------------------------------------------------------------------
// Transport properties
// ---------------------------------------------------------------------------

struct TransportParam {
  std::uint32_t msg_size;
  double loss;
  rnic::WrOpcode opcode;
};

class TransportProperty : public ::testing::TestWithParam<TransportParam> {};

TEST_P(TransportProperty, OrderedExactlyOnceDelivery) {
  const auto param = GetParam();
  rnic::World world;
  world.fabric().set_faults(net::Faults{.data_loss_prob = param.loss});
  auto& dev_a = world.add_device(1);
  auto& dev_b = world.add_device(2);
  (void)dev_a;
  (void)dev_b;
  migrlib::GuestDirectory dir;
  migrlib::MigrRdmaRuntime rt1(dir, dev_a, world.fabric());
  migrlib::MigrRdmaRuntime rt2(dir, dev_b, world.fabric());

  apps::PerftestConfig cfg;
  cfg.num_qps = 2;
  cfg.msg_size = param.msg_size;
  cfg.queue_depth = 32;
  cfg.opcode = param.opcode;
  cfg.max_messages_per_qp = 200;
  apps::PerftestPeer tx(rt1, world.add_process("tx"), 1, apps::PerftestPeer::Role::sender,
                        cfg);
  apps::PerftestPeer rx(rt2, world.add_process("rx"), 2, apps::PerftestPeer::Role::receiver,
                        cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(apps::PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  const sim::TimeNs deadline = world.loop().now() + sim::sec(20);
  while (!tx.finished() && world.loop().now() < deadline) {
    world.loop().run_until(world.loop().now() + sim::msec(10));
  }
  ASSERT_TRUE(tx.finished()) << "stream did not finish under loss " << param.loss;
  EXPECT_EQ(tx.stats().completed_msgs, 400u);
  EXPECT_EQ(tx.stats().order_violations, 0u);
  EXPECT_EQ(tx.stats().errors, 0u);
  if (rnic::is_two_sided(param.opcode)) {
    EXPECT_EQ(rx.stats().recv_msgs, 400u);
    EXPECT_EQ(rx.stats().order_violations, 0u);
    EXPECT_EQ(rx.stats().content_corruptions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransportProperty,
    ::testing::Values(
        TransportParam{64, 0.0, rnic::WrOpcode::send},
        TransportParam{64, 0.02, rnic::WrOpcode::send},
        TransportParam{512, 0.05, rnic::WrOpcode::send},
        TransportParam{4096, 0.0, rnic::WrOpcode::send},
        TransportParam{4096, 0.02, rnic::WrOpcode::send},
        TransportParam{16384, 0.01, rnic::WrOpcode::send},
        TransportParam{64, 0.0, rnic::WrOpcode::rdma_write},
        TransportParam{4096, 0.02, rnic::WrOpcode::rdma_write},
        TransportParam{65536, 0.01, rnic::WrOpcode::rdma_write},
        TransportParam{65536, 0.0, rnic::WrOpcode::rdma_write}),
    [](const auto& info) {
      const auto& p = info.param;
      return (rnic::is_two_sided(p.opcode) ? std::string("send_") : std::string("write_")) +
             std::to_string(p.msg_size) + "B_loss" +
             std::to_string(static_cast<int>(p.loss * 100));
    });

// ---------------------------------------------------------------------------
// Migration properties
// ---------------------------------------------------------------------------

struct MigrationParam {
  std::uint32_t qps;
  rnic::WrOpcode opcode;
  bool pre_setup;
};

class MigrationProperty : public ::testing::TestWithParam<MigrationParam> {};

TEST_P(MigrationProperty, CorrectnessAndReportConsistency) {
  const auto param = GetParam();
  rnic::World world;
  migrlib::GuestDirectory dir;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  for (net::HostId h = 1; h <= 3; ++h) {
    rts.push_back(
        std::make_unique<migrlib::MigrRdmaRuntime>(dir, world.add_device(h), world.fabric()));
  }
  apps::PerftestConfig cfg;
  cfg.num_qps = param.qps;
  cfg.msg_size = 8192;
  cfg.queue_depth = 16;
  cfg.opcode = param.opcode;
  apps::PerftestPeer tx(*rts[0], world.add_process("tx"), 1, apps::PerftestPeer::Role::sender,
                        cfg);
  apps::PerftestPeer rx(*rts[2], world.add_process("rx"), 2,
                        apps::PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(apps::PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  world.loop().run_until(world.loop().now() + sim::msec(3));

  auto& dest = world.add_process("dest");
  migrlib::MigrationOptions opts;
  opts.pre_setup = param.pre_setup;
  migrlib::MigrationController ctl(world.loop(), world.fabric(), dir, opts);
  migrlib::MigrationReport report;
  bool done = false;
  ASSERT_TRUE(ctl.start(1, 2, dest, &tx, [&](const migrlib::MigrationReport& r) {
                   report = r;
                   done = true;
                 })
                  .is_ok());
  const sim::TimeNs deadline = world.loop().now() + sim::sec(60);
  while (!done && world.loop().now() < deadline) {
    world.loop().run_until(world.loop().now() + sim::msec(1));
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.ok) << report.error;
  world.loop().run_until(world.loop().now() + sim::msec(20));

  // §5.3 invariants survive the migration.
  EXPECT_EQ(tx.stats().order_violations, 0u);
  EXPECT_EQ(tx.stats().errors, 0u);
  EXPECT_EQ(rx.stats().order_violations, 0u);
  EXPECT_EQ(rx.stats().content_corruptions, 0u);
  EXPECT_EQ(rx.stats().errors, 0u);

  // Report consistency: ordered timestamps, components sum into blackout.
  EXPECT_LE(report.start, report.suspend_at);
  EXPECT_LE(report.suspend_at, report.freeze_at);
  EXPECT_LT(report.freeze_at, report.resume_at);
  EXPECT_GE(report.wbs_elapsed, 0);
  EXPECT_GT(report.transfer, 0);
  EXPECT_GT(report.full_restore, 0);
  // The service blackout is the freeze->resume window; its parts must not
  // exceed it (scheduling may add slack but never subtract).
  EXPECT_LE(report.blackout_components(), report.service_blackout() + sim::msec(1));
  if (param.pre_setup) {
    EXPECT_GT(report.presetup_restore_rdma, 0);
  } else {
    EXPECT_GT(report.restore_rdma, 0);
    EXPECT_EQ(report.presetup_restore_rdma, 0);
  }
  // Traffic resumed after migration.
  const auto msgs_before = tx.stats().completed_msgs;
  world.loop().run_until(world.loop().now() + sim::msec(10));
  EXPECT_GT(tx.stats().completed_msgs, msgs_before);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MigrationProperty,
    ::testing::Values(MigrationParam{1, rnic::WrOpcode::rdma_write, true},
                      MigrationParam{4, rnic::WrOpcode::rdma_write, true},
                      MigrationParam{16, rnic::WrOpcode::rdma_write, true},
                      MigrationParam{4, rnic::WrOpcode::rdma_write, false},
                      MigrationParam{16, rnic::WrOpcode::rdma_write, false},
                      MigrationParam{1, rnic::WrOpcode::send, true},
                      MigrationParam{4, rnic::WrOpcode::send, true},
                      MigrationParam{16, rnic::WrOpcode::send, true},
                      MigrationParam{4, rnic::WrOpcode::send, false}),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(rnic::is_two_sided(p.opcode) ? "send" : "write") + "_qp" +
             std::to_string(p.qps) + (p.pre_setup ? "_presetup" : "_nopresetup");
    });

// ---------------------------------------------------------------------------
// Adversarial-network migration properties
// ---------------------------------------------------------------------------

struct AdversarialParam {
  std::uint64_t seed;
  double loss;  // steady-state data-plane drop probability
};

class AdversarialMigrationProperty : public ::testing::TestWithParam<AdversarialParam> {};

// Under sustained loss + reordering, every seeded migration must either
// complete (§5.3 invariants intact) or abort cleanly: abort reason recorded,
// source resumed and serving, and no QP on any host left permanently
// unacked.
TEST_P(AdversarialMigrationProperty, CompletesOrAbortsCleanlyNoStuckQps) {
  const auto param = GetParam();
  rnic::World world({}, param.seed);
  std::vector<rnic::Device*> devices;
  migrlib::GuestDirectory dir;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  for (net::HostId h = 1; h <= 3; ++h) {
    devices.push_back(&world.add_device(h));
    rts.push_back(
        std::make_unique<migrlib::MigrRdmaRuntime>(dir, *devices.back(), world.fabric()));
  }
  // Steady loss + reordering from t=0, plus two seeded loss bursts thrown
  // at the migration window.
  fault::ScenarioRunner runner(world.loop(), world.fabric());
  fault::FaultPlan plan = fault::FaultPlan::random_bursts(
      param.seed, /*bursts=*/2, sim::msec(5), sim::msec(60), sim::msec(2),
      std::min(1.0, param.loss * 4));
  plan.baseline(param.loss, /*reorder_prob=*/0.25, /*reorder_delay=*/sim::usec(20));
  runner.run(plan);

  apps::PerftestConfig cfg;
  cfg.num_qps = 4;
  cfg.msg_size = 8192;
  cfg.queue_depth = 16;
  cfg.opcode = rnic::WrOpcode::rdma_write;
  apps::PerftestPeer tx(*rts[0], world.add_process("tx"), 1, apps::PerftestPeer::Role::sender,
                        cfg);
  apps::PerftestPeer rx(*rts[2], world.add_process("rx"), 2,
                        apps::PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(apps::PerftestPeer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  world.loop().run_until(world.loop().now() + sim::msec(3));

  auto& dest = world.add_process("dest");
  migrlib::MigrationOptions opts;
  opts.wbs_timeout = sim::msec(500);
  migrlib::MigrationController ctl(world.loop(), world.fabric(), dir, opts);
  migrlib::MigrationReport report;
  bool done = false;
  ASSERT_TRUE(ctl.start(1, 2, dest, &tx, [&](const migrlib::MigrationReport& r) {
                   report = r;
                   done = true;
                 })
                  .is_ok());
  const sim::TimeNs deadline = world.loop().now() + sim::sec(60);
  while (!done && world.loop().now() < deadline) {
    world.loop().run_until(world.loop().now() + sim::msec(1));
  }
  ASSERT_TRUE(done) << "migration neither completed nor aborted under loss " << param.loss;

  if (report.ok) {
    EXPECT_FALSE(report.aborted);
    EXPECT_EQ(tx.stats().order_violations, 0u);
    EXPECT_EQ(rx.stats().order_violations, 0u);
    EXPECT_EQ(rx.stats().content_corruptions, 0u);
  } else {
    ASSERT_TRUE(report.aborted) << "failed without clean abort: " << report.error;
    EXPECT_FALSE(report.abort_reason.empty());
    EXPECT_TRUE(report.source_resumed);
  }

  // Whatever the outcome, the service must still be making progress...
  const auto before = tx.stats().completed_msgs;
  world.loop().run_until(world.loop().now() + sim::msec(50));
  EXPECT_GT(tx.stats().completed_msgs, before)
      << "service stalled after " << (report.ok ? "completion" : "abort");
  EXPECT_EQ(tx.stats().errors, 0u);

  // ...and no QP anywhere may sit with unacked work and no progress. The
  // stale window far exceeds the retransmit timeout, so a QP flagged here
  // is permanently wedged, not merely retrying.
  world.loop().run_until(world.loop().now() + sim::msec(300));
  for (auto* dev : devices) {
    EXPECT_TRUE(dev->audit_stuck_qps(sim::msec(250)).empty())
        << "stuck QP on host " << dev->host();
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, AdversarialMigrationProperty,
    ::testing::Values(AdversarialParam{1, 0.001}, AdversarialParam{2, 0.001},
                      AdversarialParam{3, 0.01}, AdversarialParam{4, 0.01},
                      AdversarialParam{5, 0.05}, AdversarialParam{6, 0.05},
                      AdversarialParam{7, 0.05}),
    [](const auto& info) {
      const auto& p = info.param;
      return "seed" + std::to_string(p.seed) + "_loss" +
             std::to_string(static_cast<int>(p.loss * 1000)) + "permille";
    });

// ---------------------------------------------------------------------------
// Serialization round-trip properties
// ---------------------------------------------------------------------------

class ImageRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImageRoundTrip, RandomRdmaImage) {
  common::Rng rng(GetParam());
  migrlib::RdmaImage img;
  img.final = rng.chance(0.5);
  const int n = static_cast<int>(rng.range(0, 20));
  for (int i = 0; i < n; ++i) {
    img.pds.push_back({static_cast<std::uint32_t>(rng.next())});
    migrlib::MrRec mr;
    mr.vlkey = static_cast<std::uint32_t>(rng.next());
    mr.addr = rng.next();
    mr.length = rng.range(1, 1 << 20);
    mr.access = static_cast<std::uint32_t>(rng.range(0, 31));
    img.mrs.push_back(mr);
    migrlib::QpRec qp;
    qp.vqpn = static_cast<std::uint32_t>(rng.next());
    qp.connected = rng.chance(0.5);
    qp.dest_host = static_cast<std::uint32_t>(rng.range(1, 100));
    qp.dest_pqpn = static_cast<std::uint32_t>(rng.next());
    qp.peer_guest = static_cast<std::uint32_t>(rng.next());
    img.qps.push_back(qp);
    migrlib::VSendWr s;
    s.vqpn = qp.vqpn;
    s.wr.wr_id = rng.next();
    s.wr.opcode = rng.chance(0.5) ? rnic::WrOpcode::send : rnic::WrOpcode::rdma_write;
    s.wr.sge.resize(rng.range(0, rnic::SgeList::kCapacity));
    for (auto& sge : s.wr.sge) {
      sge.addr = rng.next();
      sge.length = static_cast<std::uint32_t>(rng.range(1, 1 << 16));
      sge.lkey = static_cast<std::uint32_t>(rng.next());
    }
    img.intercepted_sends.push_back(s);
    migrlib::VRecvWr r;
    r.vqpn = qp.vqpn;
    r.wr.wr_id = rng.next();
    r.wr.sge.resize(rng.range(0, rnic::SgeList::kCapacity));
    for (auto& sge : r.wr.sge) sge = {rng.next(), 64, static_cast<std::uint32_t>(rng.next())};
    img.pending_recvs.push_back(r);
    migrlib::FakeCqe f;
    f.vcq = static_cast<std::uint32_t>(rng.next());
    f.cqe.wr_id = rng.next();
    f.cqe.qpn = static_cast<std::uint32_t>(rng.next());
    f.cqe.byte_len = static_cast<std::uint32_t>(rng.next());
    img.fake_cq_entries.push_back(f);
  }
  auto parsed = migrlib::RdmaImage::parse(img.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->serialize(), img.serialize());  // canonical round trip
  EXPECT_EQ(parsed->pds.size(), img.pds.size());
  EXPECT_EQ(parsed->qps.size(), img.qps.size());
  EXPECT_EQ(parsed->intercepted_sends.size(), img.intercepted_sends.size());
  EXPECT_EQ(parsed->pending_recvs.size(), img.pending_recvs.size());
  for (std::size_t i = 0; i < img.qps.size(); ++i) {
    EXPECT_EQ(parsed->qps[i].vqpn, img.qps[i].vqpn);
    EXPECT_EQ(parsed->qps[i].dest_pqpn, img.qps[i].dest_pqpn);
    EXPECT_EQ(parsed->qps[i].peer_guest, img.qps[i].peer_guest);
  }
}

TEST_P(ImageRoundTrip, TruncationNeverCrashes) {
  common::Rng rng(GetParam() ^ 0xABCD);
  migrlib::RdmaImage img;
  for (int i = 0; i < 5; ++i) {
    img.pds.push_back({static_cast<std::uint32_t>(rng.next())});
    img.cqs.push_back({static_cast<std::uint32_t>(rng.next()),
                       static_cast<std::uint32_t>(rng.range(1, 4096)), 0});
  }
  auto bytes = img.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    common::Bytes truncated(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    auto r = migrlib::RdmaImage::parse(truncated);  // must not crash
    (void)r;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageRoundTrip, ::testing::Values(1, 2, 3, 7, 42, 1337));

// A WR with SgeList's full 32 SGEs round-trips; the wire claiming 33 must be
// rejected by the parser, since SgeList::resize only asserts and Release
// builds compile the assert out.
TEST(ImageBounds, SgeCountPastSgeListCapacityRejected) {
  rnic::SgeList sges;
  for (std::uint32_t i = 0; i < rnic::SgeList::kCapacity; ++i) {
    sges.push_back({0x1000ull * (i + 1), 64, i});
  }
  migrlib::RdmaImage recv_img;
  recv_img.pending_recvs.push_back({7, 0, {}});
  recv_img.pending_recvs[0].wr.sge = sges;
  migrlib::RdmaImage send_img;
  send_img.intercepted_sends.push_back({7, {}});
  send_img.intercepted_sends[0].wr.sge = sges;

  for (const migrlib::RdmaImage* img : {&recv_img, &send_img}) {
    const common::Bytes full = img->serialize();
    auto parsed = migrlib::RdmaImage::parse(full);
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed->serialize(), full);

    // The SGE list is the last field before the remaining empty sections'
    // counts; grow it to 33 entries on the wire.
    const std::size_t empty_after = img == &recv_img ? 3 : 4;
    const std::size_t sges_end = full.size() - 4 * empty_after;
    const std::size_t count_at = sges_end - rnic::SgeList::kCapacity * 16 - 4;
    ASSERT_EQ(full[count_at], rnic::SgeList::kCapacity);
    common::Bytes over = full;
    over[count_at] = rnic::SgeList::kCapacity + 1;
    const common::Bytes extra(16, 0x11);
    over.insert(over.begin() + static_cast<std::ptrdiff_t>(sges_end), extra.begin(), extra.end());
    EXPECT_EQ(migrlib::RdmaImage::parse(over).status().code(), common::Errc::invalid_argument);
  }
}

// Offset of the first occurrence of `marker`'s little-endian bytes in `img`.
template <typename T>
std::size_t offset_of(const common::Bytes& img, T marker) {
  common::ByteWriter w;
  if constexpr (sizeof(T) == 8) {
    w.u64(marker);
  } else {
    w.u32(marker);
  }
  const common::Bytes pat = std::move(w).take();
  const auto it = std::search(img.begin(), img.end(), pat.begin(), pat.end());
  EXPECT_NE(it, img.end());
  return static_cast<std::size_t>(it - img.begin());
}

// An image whose every byte-stored enum holds its last value, each found
// through a marker in the field just before it.
constexpr std::uint64_t kSendWrId = 0xA1B2C3D4E5F60718ull;
constexpr std::uint64_t kCqeWrId = 0xA1B2C3D4E5F60719ull;
constexpr std::uint32_t kQpVqpn = 0xC0FFEE11u;

common::Bytes image_with_last_enum_values() {
  migrlib::RdmaImage img;
  img.intercepted_sends.push_back({7, {}});
  img.intercepted_sends[0].wr.wr_id = kSendWrId;
  img.intercepted_sends[0].wr.opcode = rnic::kLastWrOpcode;
  img.fake_cq_entries.push_back({3, {}});
  img.fake_cq_entries[0].cqe.wr_id = kCqeWrId;
  img.fake_cq_entries[0].cqe.status = rnic::kLastCqeStatus;
  img.fake_cq_entries[0].cqe.opcode = rnic::kLastCqeOpcode;
  img.qps.push_back({});
  img.qps[0].vqpn = kQpVqpn;
  img.qps[0].type = rnic::kLastQpType;
  return img.serialize();
}

// The enum byte at `at` parses at its last value and is rejected one past
// it and at 0xFF. Parsed as-is, such a byte reaches a switch with no case
// for it (a WR opcode past bind_mw never completes).
void expect_enum_byte_bounded(std::size_t at, std::uint8_t last) {
  const common::Bytes valid = image_with_last_enum_values();
  ASSERT_TRUE(migrlib::RdmaImage::parse(valid).is_ok());
  ASSERT_EQ(valid[at], last);
  for (const std::uint8_t bad : {static_cast<std::uint8_t>(last + 1), std::uint8_t{0xFF}}) {
    common::Bytes patched = valid;
    patched[at] = bad;
    EXPECT_EQ(migrlib::RdmaImage::parse(patched).status().code(), common::Errc::invalid_argument)
        << "byte " << int{bad};
  }
}

TEST(ImageBounds, WrOpcodePastLastValueRejected) {
  expect_enum_byte_bounded(offset_of(image_with_last_enum_values(), kSendWrId) + 8,
                           static_cast<std::uint8_t>(rnic::kLastWrOpcode));
}

TEST(ImageBounds, CqeStatusPastLastValueRejected) {
  expect_enum_byte_bounded(offset_of(image_with_last_enum_values(), kCqeWrId) + 8,
                           static_cast<std::uint8_t>(rnic::kLastCqeStatus));
}

TEST(ImageBounds, CqeOpcodePastLastValueRejected) {
  expect_enum_byte_bounded(offset_of(image_with_last_enum_values(), kCqeWrId) + 9,
                           static_cast<std::uint8_t>(rnic::kLastCqeOpcode));
}

TEST(ImageBounds, QpTypePastLastValueRejected) {
  expect_enum_byte_bounded(offset_of(image_with_last_enum_values(), kQpVqpn) + 4,
                           static_cast<std::uint8_t>(rnic::kLastQpType));
}

// ---------------------------------------------------------------------------
// Image parsers under mutation: every input round-trips or is rejected
// ---------------------------------------------------------------------------

// Corruptions of a valid encoding: short prefixes; runs of 0xFF (every count
// read from them is huge); a huge word at each of the first offsets, where
// every header keeps its counts; and seeded truncations, byte flips, huge
// words anywhere and trailing garbage.
std::vector<common::Bytes> mutants(const common::Bytes& valid, common::Rng& rng) {
  std::vector<common::Bytes> out;
  for (std::size_t n = 0; n <= std::min<std::size_t>(16, valid.size()); ++n) {
    out.emplace_back(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(n));
  }
  for (std::size_t n = 1; n <= 16; ++n) out.emplace_back(n, 0xFF);
  constexpr std::uint32_t kHuge = 0xFFFFFFFFu;
  for (std::size_t at = 0; at + 4 <= std::min<std::size_t>(20, valid.size()); ++at) {
    common::Bytes& m = out.emplace_back(valid);
    std::memcpy(m.data() + at, &kHuge, sizeof(kHuge));
  }
  for (int i = 0; i < 96; ++i) {
    common::Bytes m = valid;
    switch (rng.below(4)) {
      case 0:
        m.resize(rng.below(m.size() + 1));
        break;
      case 1:
        for (std::uint64_t k = rng.range(1, 4); k > 0 && !m.empty(); --k) {
          m[rng.below(m.size())] = static_cast<std::uint8_t>(rng.next());
        }
        break;
      case 2:
        if (m.size() >= 4) {
          const std::uint64_t at = rng.below(m.size() - 3);
          const std::uint32_t big =
              rng.chance(0.5) ? kHuge : static_cast<std::uint32_t>(rng.next());
          std::memcpy(m.data() + at, &big, sizeof(big));
        }
        break;
      default:
        for (std::uint64_t k = rng.range(1, 64); k > 0; --k) {
          m.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

// `valid` parses back to itself. Every mutant either fails with a status or
// parses to a value whose encoding is canonical (it parses back to the same
// bytes). No input throws — a count sized off the wire used to bad_alloc.
template <typename Image>
void sweep(const common::Bytes& valid, std::uint64_t seed) {
  auto round_trip = Image::parse(valid);
  ASSERT_TRUE(round_trip.is_ok());
  ASSERT_EQ(round_trip->serialize(), valid);
  common::Rng rng(seed);
  std::size_t rejected = 0;
  for (const common::Bytes& m : mutants(valid, rng)) {
    common::Result<Image> parsed = common::err(common::Errc::internal, "not parsed");
    ASSERT_NO_THROW(parsed = Image::parse(m));
    if (!parsed.is_ok()) {
      rejected++;
      continue;
    }
    const common::Bytes once = parsed->serialize();
    auto again = Image::parse(once);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again->serialize(), once);
  }
  EXPECT_GT(rejected, 0u);
}

class ImageMutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImageMutationSweep, RdmaImage) {
  common::Rng rng(GetParam());
  migrlib::RdmaImage img;
  img.final = rng.chance(0.5);
  for (int i = 0, n = static_cast<int>(rng.range(1, 4)); i < n; ++i) {
    img.pds.push_back({static_cast<std::uint32_t>(rng.next())});
    img.cqs.push_back({static_cast<std::uint32_t>(rng.next()), 64, 0});
    migrlib::MrRec mr;
    mr.vlkey = static_cast<std::uint32_t>(rng.next());
    mr.addr = rng.next();
    mr.length = rng.range(1, 1 << 20);
    img.mrs.push_back(mr);
    migrlib::QpRec qp;
    qp.vqpn = static_cast<std::uint32_t>(rng.next());
    qp.connected = rng.chance(0.5);
    img.qps.push_back(qp);
    migrlib::VSendWr s;
    s.vqpn = qp.vqpn;
    s.wr.wr_id = rng.next();
    s.wr.sge.resize(rng.range(0, rnic::SgeList::kCapacity));
    for (auto& sge : s.wr.sge) sge = {rng.next(), 64, static_cast<std::uint32_t>(rng.next())};
    img.intercepted_sends.push_back(s);
    migrlib::VRecvWr r;
    r.vqpn = qp.vqpn;
    r.wr.wr_id = rng.next();
    r.wr.sge.resize(rng.range(0, rnic::SgeList::kCapacity));
    for (auto& sge : r.wr.sge) sge = {rng.next(), 64, static_cast<std::uint32_t>(rng.next())};
    img.pending_recvs.push_back(r);
    migrlib::FakeCqe f;
    f.vcq = static_cast<std::uint32_t>(rng.next());
    f.cqe.wr_id = rng.next();
    img.fake_cq_entries.push_back(f);
    img.counters.push_back({qp.vqpn, rng.next(), rng.next()});
  }
  sweep<migrlib::RdmaImage>(img.serialize(), GetParam());
}

TEST_P(ImageMutationSweep, MemoryImage) {
  common::Rng rng(GetParam());
  criu::MemoryImage img;
  img.mmap_cursor = rng.next();
  for (int i = 0, n = static_cast<int>(rng.range(1, 8)); i < n; ++i) {
    // Tags past the small-string buffer too, so parsing allocates them.
    img.vmas.push_back({rng.next(), rng.range(1, 64) * proc::kPageSize,
                        std::string(rng.range(0, 24), static_cast<char>('a' + i))});
  }
  sweep<criu::MemoryImage>(img.serialize(), GetParam());
}

TEST_P(ImageMutationSweep, PageSet) {
  common::Rng rng(GetParam());
  std::vector<common::Bytes> contents;
  for (int i = 0, n = static_cast<int>(rng.range(1, 6)); i < n; ++i) {
    common::Bytes& c = contents.emplace_back(proc::kPageSize);
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.next());
  }
  criu::PageSet set;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    set.pages.push_back({0x1000 * (i + 1), contents[i]});
  }
  sweep<criu::PageSet>(set.serialize(), GetParam());
}

// The delta codec is stateful, so the sweep mutates a second batch (zero,
// same, delta and full pages against the first) and decodes each mutant on
// a copy of a decoder primed with the first batch.
TEST_P(ImageMutationSweep, PageDeltaBatch) {
  common::Rng rng(GetParam());
  constexpr int kPages = 6;
  std::vector<common::Bytes> round1(kPages, common::Bytes(proc::kPageSize));
  for (auto& c : round1) {
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<common::Bytes> round2 = round1;
  round2[0].assign(proc::kPageSize, 0);                     // zero
  round2[2][17] ^= 0x5A;                                    // delta
  for (auto& b : round2[3]) b = static_cast<std::uint8_t>(rng.next());  // full
  auto as_set = [](const std::vector<common::Bytes>& contents) {
    criu::PageSet set;
    for (std::size_t i = 0; i < contents.size(); ++i) {
      set.pages.push_back({0x1000 * (i + 1), contents[i]});
    }
    return set;
  };
  criu::PageDeltaEncoder enc;
  criu::PageDeltaDecoder primed;
  ASSERT_TRUE(primed.decode(enc.encode(as_set(round1))).is_ok());
  const common::Bytes batch2 = enc.encode(as_set(round2));

  // Unmutated: every page the batch carries decodes to round 2's content.
  criu::PageDeltaDecoder exact = primed;
  auto decoded = exact.decode(batch2);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->pages.size(), 3u) << "pages 1, 4 and 5 ship as kSame";
  for (const auto& p : decoded->pages) {
    EXPECT_TRUE(std::ranges::equal(p.data, round2[p.addr / 0x1000 - 1]));
  }

  std::size_t rejected = 0;
  for (const common::Bytes& m : mutants(batch2, rng)) {
    criu::PageDeltaDecoder dec = primed;
    common::Result<criu::PageSet> got = common::err(common::Errc::internal, "not decoded");
    ASSERT_NO_THROW(got = dec.decode(m));
    if (!got.is_ok()) {
      rejected++;
      continue;
    }
    for (const auto& p : got->pages) EXPECT_EQ(p.data.size(), proc::kPageSize);
  }
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageMutationSweep, ::testing::Values(1, 2, 3, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Image payloads and FT epoch frames under mutation
// ---------------------------------------------------------------------------

// Every image payload the controllers ship is read by one section reader
// (read_sections), and FT wraps each epoch's payload in one frame
// (read_epoch_frame). The sweep frames real dumps of a MsgNode guest (an RC
// QP to a partner, registered MRs, traffic in flight) the way the
// controllers do, in every shape: the initial copy (one RDMA section), a
// pre-copy round (none), the final diff (two) and an FT epoch frame. Every
// mutant is rejected with a status or yields sections that lie inside it
// and frame back to a prefix of it. The sweep stops at the framing: the
// Restorer trusts VMA lengths, so applying mutated images is not bounded.
struct RealPayloads {
  common::Bytes initial;
  common::Bytes round;
  common::Bytes final_diff;
  common::Bytes epoch_frame;
};

common::Bytes frame_sections(std::initializer_list<std::span<const std::uint8_t>> sections) {
  common::ByteWriter w;
  for (std::span<const std::uint8_t> s : sections) w.bytes(s);
  return std::move(w).take();
}

RealPayloads real_payloads() {
  rnic::World world({}, /*seed=*/5);
  migrlib::GuestDirectory dir;
  migrlib::MigrRdmaRuntime rt1(dir, world.add_device(1), world.fabric());
  migrlib::MigrRdmaRuntime rt2(dir, world.add_device(2), world.fabric());
  proc::SimProcess& proc = world.add_process("guest");
  apps::MsgNode a(rt1, proc, 10);
  apps::MsgNode b(rt2, world.add_process("partner"), 20);
  EXPECT_TRUE(apps::MsgNode::connect(a, b).is_ok());
  a.start();
  b.start();
  const common::Bytes msg(512, 0x5A);
  auto send_some = [&] {
    for (int i = 0; i < 8; ++i) (void)a.send(20, msg);
    world.loop().run_until(world.loop().now() + sim::usec(200));
  };

  RealPayloads out;
  criu::Checkpointer ckpt(proc);
  migrlib::Plugin plugin;
  send_some();
  const criu::Checkpointer::Dump first = ckpt.pre_dump();
  const common::Bytes predump = plugin.pre_dump(a.guest());
  out.initial = frame_sections({first.image.serialize(), first.pages.serialize(), predump});
  send_some();
  const criu::Checkpointer::Dump round = ckpt.pre_dump();
  out.round = frame_sections({round.image.serialize(), round.pages.serialize()});
  send_some();
  proc.freeze();
  auto epoch = ckpt.epoch_dump();
  EXPECT_TRUE(epoch.is_ok());
  const common::Bytes delta = plugin.final_dump(a.guest());
  common::ByteWriter frame;
  frame.u64(3);
  frame.bytes(frame_sections({epoch->image.serialize(), epoch->pages.serialize(), delta}));
  out.epoch_frame = std::move(frame).take();
  auto last = ckpt.final_dump();
  EXPECT_TRUE(last.is_ok());
  const common::Bytes final_rdma = plugin.final_dump(a.guest());
  out.final_diff = frame_sections(
      {last->image.serialize(), last->pages.serialize(), predump, final_rdma});
  return out;
}

bool inside(std::span<const std::uint8_t> part, std::span<const std::uint8_t> whole) {
  return part.data() >= whole.data() && part.data() + part.size() <= whole.data() + whole.size();
}

bool is_prefix(const common::Bytes& part, std::span<const std::uint8_t> whole) {
  return part.size() <= whole.size() && std::equal(part.begin(), part.end(), whole.begin());
}

// Reads N sections of `input`; returns false when the reader rejected it.
template <std::size_t N>
bool check_sections(std::span<const std::uint8_t> input) {
  common::Result<std::array<migrlib::Section, N>> got =
      common::err(common::Errc::internal, "not read");
  EXPECT_NO_THROW(got = migrlib::read_sections<N>(input));
  if (!got.is_ok()) return false;
  common::ByteWriter again;
  for (const migrlib::Section& s : got.value()) {
    EXPECT_TRUE(inside(s, input)) << "a section points outside its payload";
    again.bytes(s);
  }
  EXPECT_TRUE(is_prefix(again.data(), input));
  return true;
}

// The real payload is exactly N sections; its mutants read back or are
// rejected.
template <std::size_t N>
void sweep_sections(const common::Bytes& valid, std::uint64_t seed) {
  auto exact = migrlib::read_sections<N>(valid);
  ASSERT_TRUE(exact.is_ok());
  common::ByteWriter again;
  for (const migrlib::Section& s : exact.value()) again.bytes(s);
  ASSERT_EQ(again.data(), valid) << "not a payload of " << N << " sections";
  EXPECT_FALSE(migrlib::read_sections<N + 1>(valid).is_ok());
  common::Rng rng(seed);
  std::size_t rejected = 0;
  for (const common::Bytes& m : mutants(valid, rng)) {
    if (!check_sections<N>(m)) rejected++;
  }
  EXPECT_GT(rejected, 0u);
}

class PayloadMutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PayloadMutationSweep, InitialCopy) {
  sweep_sections<3>(real_payloads().initial, GetParam());
}

TEST_P(PayloadMutationSweep, PrecopyRound) {
  sweep_sections<2>(real_payloads().round, GetParam());
}

TEST_P(PayloadMutationSweep, FinalDiff) {
  sweep_sections<4>(real_payloads().final_diff, GetParam());
}

// The frame reads back to (epoch, payload) and its payload through the same
// three-section reader the backup applies it with.
TEST_P(PayloadMutationSweep, FtEpochFrame) {
  const common::Bytes valid = real_payloads().epoch_frame;
  auto exact = migrlib::read_epoch_frame(valid);
  ASSERT_TRUE(exact.is_ok());
  EXPECT_EQ(exact->epoch, 3u);
  EXPECT_EQ(exact->payload.size() + 12, valid.size());
  ASSERT_TRUE(check_sections<3>(exact->payload));

  common::Rng rng(GetParam());
  std::size_t rejected = 0;
  for (const common::Bytes& m : mutants(valid, rng)) {
    common::Result<migrlib::EpochFrame> got = common::err(common::Errc::internal, "not read");
    ASSERT_NO_THROW(got = migrlib::read_epoch_frame(m));
    if (!got.is_ok()) {
      rejected++;
      continue;
    }
    ASSERT_TRUE(inside(got->payload, m)) << "the payload points outside its frame";
    common::ByteWriter again;
    again.u64(got->epoch);
    again.bytes(got->payload);
    EXPECT_TRUE(is_prefix(again.data(), m));
    (void)check_sections<3>(got->payload);
  }
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadMutationSweep, ::testing::Values(1, 2, 3, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Post-copy page requests and replies under mutation
// ---------------------------------------------------------------------------

// A post-copy drain of kPcPages pages between two hosts: the pump serves page
// requests on the source (`migr.pcp.req.<guest>`) and installs the replies
// that reach the destination through its mux. While it runs, the sweep
// injects mutants and truncations of a request and of a reply framed as the
// pump frames them (a kind byte and a u32 count, then per page its address,
// or its address and length-prefixed contents), plus replies whose records
// each carry part of a page. Nothing throws; a request holds the source
// under ctrl pressure for at most the pages it carries; a reply installs only
// pages it carries in full; the drain completes.
constexpr migrlib::GuestId kPcGuest = 9;
constexpr proc::VirtAddr kPcBase = 0x40000000;
constexpr std::size_t kPcPages = 48;
constexpr std::uint8_t kPcFault = 2;  // PostcopyPump's demand-fault request kind

common::Bytes pc_request(std::span<const proc::VirtAddr> pages) {
  common::ByteWriter w;
  w.u8(kPcFault);
  w.u32(static_cast<std::uint32_t>(pages.size()));
  for (proc::VirtAddr p : pages) w.u64(p);
  return std::move(w).take();
}

// A reply; `cut` > 0 makes every record carry only that many bytes of its page.
common::Bytes pc_reply(proc::AddressSpace& src, std::span<const proc::VirtAddr> pages,
                       std::size_t cut = 0) {
  common::ByteWriter w;
  w.u8(kPcFault);
  w.u32(static_cast<std::uint32_t>(pages.size()));
  for (proc::VirtAddr p : pages) {
    w.u64(p);
    const auto data = *src.page_at(p);
    w.bytes({data.data(), cut > 0 ? cut : data.size()});
  }
  return std::move(w).take();
}

class PostcopyMutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PostcopyMutationSweep, RequestsAndRepliesStayBounded) {
  rnic::World world({}, GetParam());
  rnic::Device& src_dev = world.add_device(1);
  world.add_device(2);
  proc::SimProcess& src = world.add_process("source");
  proc::SimProcess& dest = world.add_process("dest");
  ASSERT_TRUE(src.mem().mmap_fixed(kPcBase, kPcPages * proc::kPageSize, "heap").is_ok());
  ASSERT_TRUE(dest.mem().mmap_fixed(kPcBase, kPcPages * proc::kPageSize, "heap").is_ok());
  common::Rng rng(GetParam());
  std::vector<proc::VirtAddr> pages;
  for (std::size_t i = 0; i < kPcPages; ++i) {
    pages.push_back(kPcBase + i * proc::kPageSize);
    // Odd bytes: no source page, nor any mutant of one, reads as zeros.
    const proc::PageBytes page = *src.mem().page_at(pages.back());
    for (auto& b : page) b = static_cast<std::uint8_t>(rng.next() | 1);
  }

  migrlib::TransferMux mux(world.loop(), world.fabric(), "pcp.sweep", 1, 2, {});
  migrlib::PostcopyConfig cfg;
  cfg.batch_pages = 4;
  migrlib::PostcopyPump pump(world.loop(), world.fabric(), kPcGuest, 1, 2, src, dest, src_dev,
                             mux, cfg);
  pump.arm(pages);
  std::optional<common::Status> drained;
  pump.start([&](const common::Status& st) { drained = st; });

  // What each destination page may hold at the end: its source contents, or
  // the contents of a record that carried it in full.
  std::map<proc::VirtAddr, std::vector<common::Bytes>> allowed;
  for (proc::VirtAddr p : pages) {
    const auto data = *src.mem().page_at(p);
    allowed[p].emplace_back(data.begin(), data.end());
  }
  auto allow_full_records = [&](const common::Bytes& reply) {
    common::ByteReader r{reply};
    if (!r.u8().is_ok() || !r.u32().is_ok()) return;
    for (;;) {
      auto addr = r.u64();
      auto data = r.view();
      if (!addr.is_ok() || !data.is_ok()) return;
      if (data->size() == proc::kPageSize) {
        allowed[*addr & ~(proc::kPageSize - 1)].emplace_back(data->begin(), data->end());
      }
    }
  };

  // Replies first, for the pages the prefetch stream reaches last, so they
  // land while those pages are still missing; the partial ones lead.
  const std::span<const proc::VirtAddr> tail{pages.end() - 4, pages.end()};
  std::vector<common::Bytes> replies;
  for (std::size_t cut : {std::size_t{1}, std::size_t{100}, proc::kPageSize - 1}) {
    replies.push_back(pc_reply(src.mem(), tail, cut));
  }
  for (common::Bytes& m : mutants(pc_reply(src.mem(), tail), rng)) replies.push_back(std::move(m));
  for (const common::Bytes& m : replies) {
    allow_full_records(m);
    mux.send(m);
  }

  // Requests one at a time: the source handles each at its delivery instant,
  // bracketed by one probe just before and one just after it.
  const std::string service = "migr.pcp.req." + std::to_string(kPcGuest);
  auto pressure_charged = [&](const common::Bytes& frame) -> sim::DurationNs {
    auto sent = world.fabric().send_ctrl(2, 1, service, frame);
    EXPECT_TRUE(sent.is_ok());
    const sim::TimeNs at = sent.value() + world.fabric().config().propagation;
    sim::TimeNs before = 0;
    sim::TimeNs after = 0;
    world.loop().schedule_at(at - 1, [&] { before = src_dev.ctrl_pressure_until(); });
    world.loop().schedule_at(at, [&] { after = src_dev.ctrl_pressure_until(); });
    EXPECT_NO_THROW(world.loop().run_until(at));
    return after > before ? after - std::max(before, at) : 0;
  };
  const std::span<const proc::VirtAddr> head{pages.begin() + 8, pages.begin() + 16};
  const common::Bytes request = pc_request(head);
  EXPECT_EQ(pressure_charged(request),
            migrlib::kPostcopyPerPageRead * static_cast<sim::DurationNs>(head.size()));
  for (const common::Bytes& m : mutants(request, rng)) {
    const std::size_t carried = m.size() >= 5 ? (m.size() - 5) / 8 : 0;
    EXPECT_LE(pressure_charged(m), migrlib::kPostcopyPerPageRead * static_cast<sim::DurationNs>(carried))
        << "a " << m.size() << "-byte request carrying " << carried << " pages";
  }

  while (!drained && world.loop().now() < sim::sec(2)) {
    ASSERT_NO_THROW(world.loop().run_for(sim::msec(1)));
  }
  ASSERT_TRUE(drained.has_value()) << "the drain did not finish";
  EXPECT_TRUE(drained->is_ok()) << drained->to_string();
  for (proc::VirtAddr p : pages) {
    const auto data = *dest.mem().page_at(p);
    const common::Bytes got(data.begin(), data.end());
    EXPECT_TRUE(std::ranges::find(allowed[p], got) != allowed[p].end())
        << "page 0x" << std::hex << p << " holds contents no reply carried in full";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostcopyMutationSweep, ::testing::Values(1, 2, 3, 7, 42, 1337));

// ---------------------------------------------------------------------------
// TransferMux frames under mutation
// ---------------------------------------------------------------------------

// A live mux between two hosts carries three transfers. The sweep injects
// mutants and truncations of their data frames on the stream services and
// of their ACK frames on the ACK service, while the first two are in flight
// and again after they were delivered; the third is sent after that. Frames
// are framed as the mux frames them: seq u64, index u32, chunk count u32,
// stream u32 and the length-prefixed chunk; an ACK is seq u64 and index u32.
// A mutant in the exact shape of a frame (or an ACK) the receiver (or the
// sender) may still be waiting for is a genuine frame by construction, since
// the format carries no checksum; the sweep injects one of those only when
// it is the genuine frame's bytes. Every data mutant is dropped or acked, and
// one that does not fit a live transfer is dropped unacked with the
// receiver's accounting untouched. Each transfer is delivered once, in order
// and intact, and nothing else is delivered.
constexpr std::uint32_t kMuxStreams = 2;
constexpr std::uint64_t kMuxChunk = 1024;

std::uint64_t mux_chunks(std::size_t payload_bytes) {
  return std::max<std::uint64_t>(1, (payload_bytes + kMuxChunk - 1) / kMuxChunk);
}

common::Bytes mux_frame(std::uint64_t seq, std::uint32_t index, const common::Bytes& payload) {
  const std::uint64_t off = index * kMuxChunk;
  common::ByteWriter w;
  w.u64(seq);
  w.u32(index);
  w.u32(static_cast<std::uint32_t>(mux_chunks(payload.size())));
  w.u32(index % kMuxStreams);
  w.bytes({payload.data() + off, std::min<std::uint64_t>(kMuxChunk, payload.size() - off)});
  return std::move(w).take();
}

common::Bytes mux_ack(std::uint64_t seq, std::uint32_t index) {
  common::ByteWriter w;
  w.u64(seq);
  w.u32(index);
  return std::move(w).take();
}

class XferMutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XferMutationSweep, MutantsAreDroppedOrAckedAndNeverDelivered) {
  sim::EventLoop loop;
  net::Fabric fabric(loop, net::FabricConfig{}, GetParam());
  ASSERT_TRUE(fabric.attach_host(1).is_ok());
  ASSERT_TRUE(fabric.attach_host(2).is_ok());
  migrlib::XferOptions xo;
  xo.streams = kMuxStreams;
  xo.chunk_bytes = kMuxChunk;
  xo.stream_gbps = 0.01;  // ~0.8 ms a chunk: the transfers stay in flight
  xo.chunk_timeout = sim::sec(1);
  const std::string base = "xfer.sweep";
  migrlib::TransferMux mux(loop, fabric, base, 1, 2, xo);
  std::vector<common::Bytes> got;
  int failures = 0;
  mux.open([&](common::Bytes&& p) { got.push_back(std::move(p)); },
           [&](const common::Status&) { failures++; });

  common::Rng rng(GetParam());
  std::vector<common::Bytes> sent;
  auto send = [&](std::size_t n) {
    common::Bytes& p = sent.emplace_back(n);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    mux.send(p);
  };
  auto nchunks = [&](std::uint64_t seq) { return mux_chunks(sent[seq].size()); };
  // In flight: sent and not yet delivered.
  auto live = [&](std::uint64_t seq) { return seq >= got.size() && seq < sent.size(); };

  // Send `frame` from host `from` to `service` on host `to` and return what
  // the mux's receiving side did with it: ACKs sent and stream bytes counted,
  // read by one probe just before the frame's delivery instant and one just
  // after it.
  struct Effect {
    std::uint64_t acks = 0;
    std::uint64_t counted = 0;
  };
  auto inject = [&](net::HostId from, net::HostId to, const std::string& service,
                    const common::Bytes& frame) {
    auto sent_at = fabric.send_ctrl(from, to, service, frame);
    EXPECT_TRUE(sent_at.is_ok());
    const sim::TimeNs at = sent_at.value() + fabric.config().propagation;
    auto snapshot = [&] {
      Effect e{fabric.stats(2).ctrl_messages_tx, 0};
      for (const auto& s : mux.stats().streams) e.counted += s.bytes_delivered;
      return e;
    };
    Effect before;
    Effect after;
    loop.schedule_at(at - 1, [&] { before = snapshot(); });
    loop.schedule_at(at, [&] { after = snapshot(); });
    EXPECT_NO_THROW(loop.run_until(at));
    return Effect{after.acks - before.acks, after.counted - before.counted};
  };

  auto sweep_data = [&](std::uint64_t seq, std::uint32_t index) {
    const common::Bytes genuine = mux_frame(seq, index, sent[seq]);
    const std::string service = base + "." + std::to_string(index % kMuxStreams);
    for (const common::Bytes& m : mutants(genuine, rng)) {
      common::ByteReader r{m};
      auto s = r.u64();
      auto i = r.u32();
      auto n = r.u32();
      auto k = r.u32();
      auto chunk = r.view();
      const bool parsed = s.is_ok() && i.is_ok() && n.is_ok() && k.is_ok() && chunk.is_ok() &&
                          r.done();
      const bool for_live = parsed && live(*s);
      const bool fits = for_live && *n == nchunks(*s) && *i < *n &&
                        *k == index % kMuxStreams && *k == *i % kMuxStreams &&
                        chunk->size() <= kMuxChunk &&
                        (*i + 1 == *n || chunk->size() == kMuxChunk);
      if (fits && m != mux_frame(*s, *i, sent[*s])) continue;  // indistinguishable
      const Effect e = inject(1, 2, service, m);
      EXPECT_LE(e.acks, 1u) << "a mutant is dropped or acked once";
      if (!parsed || (for_live && !fits) || (parsed && *s >= sent.size())) {
        EXPECT_EQ(e.acks, 0u) << "a frame that fits no live transfer was acked";
        EXPECT_EQ(e.counted, 0u) << "a frame that fits no live transfer was counted";
      }
    }
  };
  auto sweep_acks = [&](std::uint64_t seq, std::uint32_t index) {
    for (const common::Bytes& m : mutants(mux_ack(seq, index), rng)) {
      common::ByteReader r{m};
      auto s = r.u64();
      auto i = r.u32();
      if (s.is_ok() && i.is_ok() && r.done() && live(*s) && *i < nchunks(*s)) continue;
      (void)inject(2, 1, base + ".ack", m);
    }
  };

  send(5 * kMuxChunk + 300);  // 6 chunks, the last one short
  send(3 * kMuxChunk);        // 3 full chunks
  ASSERT_NO_THROW(loop.run_for(sim::msec(1)));
  ASSERT_TRUE(got.empty()) << "the transfers should still be in flight";
  sweep_data(0, 1);
  sweep_data(0, 5);
  sweep_data(1, 0);
  sweep_acks(0, 0);
  sweep_acks(1, 2);

  while (got.size() < 2 && loop.now() < sim::sec(5)) ASSERT_NO_THROW(loop.run_for(sim::msec(1)));
  ASSERT_EQ(got.size(), 2u);
  // After delivery: every mutant names a finished transfer or none.
  sweep_data(0, 1);
  sweep_data(1, 2);
  sweep_acks(0, 3);
  sweep_acks(1, 0);

  send(700);  // the mux still carries a fresh transfer
  while (got.size() < 3 && loop.now() < sim::sec(10)) ASSERT_NO_THROW(loop.run_for(sim::msec(1)));
  ASSERT_NO_THROW(loop.run_for(sim::msec(10)));
  EXPECT_EQ(failures, 0);
  ASSERT_EQ(got.size(), sent.size()) << "a transfer was lost or something else was delivered";
  for (std::size_t t = 0; t < sent.size(); ++t) {
    EXPECT_EQ(got[t], sent[t]) << "transfer " << t << " was not delivered intact, in order";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XferMutationSweep, ::testing::Values(1, 2, 3, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Wire-parser mutation sweep
// ---------------------------------------------------------------------------

// WirePacket::parse(net::Packet&&) is the only wire parser, and its input
// arrives off the fabric. Every frame either fails with a status or parses
// into fields that serialize_header writes back byte for byte, with the
// body adopted unchanged. Inputs: header sizes around the 71-byte header
// (empty included), byte flips at every header offset, every out-of-range
// opcode, unknown flag bits, and declared payload lengths that disagree
// with the body.
class WireMutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireMutationSweep, EveryFrameIsRejectedOrRoundTrips) {
  using rnic::PktOp;
  using rnic::WirePacket;
  constexpr std::size_t kHeader = WirePacket::kHeaderBytes;
  constexpr std::size_t kFlagsAt = 17;   // after op, dst_qpn, src_qpn, psn
  constexpr std::size_t kLengthAt = 67;  // the closing u32 payload length
  common::Rng rng(GetParam());

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  // Parse one frame; an accepted one must re-serialize to its own bytes.
  auto check = [&](const net::FrameHeader& header, const common::Bytes& body) {
    net::Packet raw(1, 2, body);
    raw.header = header;
    common::Result<WirePacket> parsed = common::err(common::Errc::internal, "not parsed");
    ASSERT_NO_THROW(parsed = WirePacket::parse(std::move(raw)));
    if (!parsed.is_ok()) {
      rejected++;
      return;
    }
    accepted++;
    net::FrameHeader again;
    parsed->serialize_header(again);
    ASSERT_EQ(again.size(), header.size());
    EXPECT_TRUE(std::ranges::equal(again.span(), header.span()));
    EXPECT_TRUE(std::ranges::equal(parsed->payload.span(), body));
  };

  for (int round = 0; round < 8; ++round) {
    WirePacket pkt;
    pkt.op = static_cast<PktOp>(rng.below(static_cast<std::uint64_t>(PktOp::nak) + 1));
    pkt.dst_qpn = static_cast<rnic::Qpn>(rng.next());
    pkt.src_qpn = static_cast<rnic::Qpn>(rng.next());
    pkt.psn = rng.next();
    pkt.first = rng.chance(0.5);
    pkt.last = rng.chance(0.5);
    pkt.has_imm = rng.chance(0.5);
    pkt.imm = static_cast<std::uint32_t>(rng.next());
    pkt.remote_addr = rng.next();
    pkt.rkey = static_cast<rnic::Rkey>(rng.next());
    pkt.msg_len = static_cast<std::uint32_t>(rng.next());
    pkt.offset = static_cast<std::uint32_t>(rng.next());
    pkt.atomic_op = static_cast<std::uint8_t>(rng.next());
    pkt.compare_add = rng.next();
    pkt.swap = rng.next();
    pkt.resp_token = rng.next();
    common::Bytes body(rng.below(300));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    pkt.payload = common::PayloadRef::copy_of(body);
    net::FrameHeader valid;
    pkt.serialize_header(valid);
    ASSERT_EQ(valid.size(), kHeader);

    const std::size_t before = rejected;
    check(valid, body);
    ASSERT_EQ(rejected, before) << "a serialized header must parse";

    // Truncated and over-long headers, from empty to the inline capacity.
    for (std::size_t n = 0; n <= net::FrameHeader::capacity(); ++n) {
      if (n == kHeader) continue;
      net::FrameHeader h;
      h.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        h.data()[i] = i < kHeader ? valid.data()[i] : static_cast<std::uint8_t>(rng.next());
      }
      const std::size_t was = rejected;
      check(h, body);
      EXPECT_EQ(rejected, was + 1) << "header of " << n << " bytes";
    }
    // A flipped byte at every header offset.
    for (std::size_t at = 0; at < kHeader; ++at) {
      net::FrameHeader h = valid;
      h.data()[at] ^= static_cast<std::uint8_t>(rng.range(1, 255));
      check(h, body);
    }
    // Every opcode past the last one.
    for (unsigned op = static_cast<unsigned>(PktOp::nak) + 1; op <= 0xff; ++op) {
      net::FrameHeader h = valid;
      h.data()[0] = static_cast<std::uint8_t>(op);
      const std::size_t was = rejected;
      check(h, body);
      EXPECT_EQ(rejected, was + 1) << "opcode " << op;
    }
    // Any flag bit beyond first/last/imm.
    for (unsigned bit = 3; bit < 8; ++bit) {
      net::FrameHeader h = valid;
      h.data()[kFlagsAt] |= static_cast<std::uint8_t>(1u << bit);
      const std::size_t was = rejected;
      check(h, body);
      EXPECT_EQ(rejected, was + 1) << "flag bit " << bit;
    }
    // Declared payload lengths that disagree with the body.
    for (int k = 0; k < 16; ++k) {
      std::uint32_t declared = static_cast<std::uint32_t>(rng.next());
      if (k < 4) declared = static_cast<std::uint32_t>(body.size()) + 1 + k;
      if (k >= 4 && k < 8 && body.size() > static_cast<std::size_t>(k - 4)) {
        declared = static_cast<std::uint32_t>(body.size()) - 1 - (k - 4);
      }
      if (declared == body.size()) continue;
      net::FrameHeader h = valid;
      for (int i = 0; i < 4; ++i) {
        h.data()[kLengthAt + i] = static_cast<std::uint8_t>(declared >> (8 * i));
      }
      const std::size_t was = rejected;
      check(h, body);
      EXPECT_EQ(rejected, was + 1) << "declared length " << declared;
    }
    // A body that disagrees with the header's declared length.
    common::Bytes other = body;
    other.push_back(0x5a);
    const std::size_t was = rejected;
    check(valid, other);
    EXPECT_EQ(rejected, was + 1);
  }
  EXPECT_GT(accepted, 8u);  // byte flips in plain fields parse and round-trip
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireMutationSweep, ::testing::Values(1, 2, 3, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Address-space model check
// ---------------------------------------------------------------------------

class AddressSpaceModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressSpaceModel, RandomOpsAgreeWithReferenceModel) {
  using proc::kPageSize;
  using proc::VirtAddr;
  common::Rng rng(GetParam());
  proc::AddressSpace mem;
  std::map<VirtAddr, std::uint8_t> model;  // addr -> byte
  std::set<VirtAddr> dirty;                // pages written since the last collect
  std::map<VirtAddr, std::uint64_t> vmas;  // start -> length

  // Whether every byte of [a, a+n) lies in some VMA, crossing adjacent ones.
  auto model_mapped = [&](VirtAddr a, std::uint64_t n) {
    for (VirtAddr cur = a; cur < a + n;) {
      auto it = vmas.upper_bound(cur);
      if (it == vmas.begin()) return false;
      --it;
      if (cur >= it->first + it->second) return false;
      cur = it->first + it->second;
    }
    return true;
  };
  // Every mapped byte of [a, a+n) reads back as the model says.
  auto expect_model = [&](VirtAddr a, std::uint64_t n) {
    for (const auto& [start, len] : vmas) {
      const VirtAddr lo = std::max(a, start);
      const VirtAddr hi = std::min(a + n, start + len);
      if (lo >= hi) continue;
      std::vector<std::uint8_t> got(hi - lo);
      ASSERT_TRUE(mem.read(lo, got).is_ok());
      for (VirtAddr i = lo; i < hi; ++i) {
        auto it = model.find(i);
        ASSERT_EQ(got[i - lo], it == model.end() ? 0 : it->second) << "addr " << std::hex << i;
      }
    }
  };
  // Moves (target != 0) or drops the model state of the VMA at `start`.
  auto carry = [&](VirtAddr start, std::uint64_t len, VirtAddr target) {
    std::map<VirtAddr, std::uint8_t> moved;
    for (auto it = model.lower_bound(start); it != model.end() && it->first < start + len;) {
      if (target != 0) moved[target + (it->first - start)] = it->second;
      it = model.erase(it);
    }
    model.merge(moved);
    std::set<VirtAddr> moved_dirty;
    for (auto it = dirty.lower_bound(start); it != dirty.end() && *it < start + len;) {
      if (target != 0) moved_dirty.insert(target + (*it - start));
      it = dirty.erase(it);
    }
    dirty.merge(moved_dirty);
  };
  // A random access range: anywhere in a VMA, or starting near its end and
  // running on into whatever follows (an adjacent VMA, a gap, or both).
  auto pick_range = [&]() -> std::pair<VirtAddr, std::uint64_t> {
    auto it = std::next(vmas.begin(), static_cast<std::ptrdiff_t>(rng.below(vmas.size())));
    const auto [start, len] = *it;
    if (rng.below(2) == 0) {
      const std::uint64_t off = rng.below(len);
      return {start + off, rng.range(1, std::min<std::uint64_t>(len - off, 64))};
    }
    return {start + len - rng.range(1, 64), rng.range(1, 2 * kPageSize + 128)};
  };
  // A NIC landing: a payload handed to write(VirtAddr, PayloadRef&&). It is
  // a whole page block with no other reference (taken when it lands on an
  // aligned, already written page), the same block with a second reference,
  // a page-sized slice of a larger block, a partial page, or a whole block
  // at an unaligned address. It goes to a page of some VMA or to the page
  // just past one (an adjacent VMA or a gap).
  struct Landing {
    VirtAddr addr = 0;
    common::PayloadRef payload;
    common::PayloadRef other;  // another reference to the payload's block
  };
  auto pick_landing = [&] {
    Landing l;
    auto it = std::next(vmas.begin(), static_cast<std::ptrdiff_t>(rng.below(vmas.size())));
    const auto [start, len] = *it;
    l.addr = start + rng.below(len / kPageSize + 1) * kPageSize;
    switch (rng.below(6)) {
      case 0:
      case 1:
        l.payload = common::PayloadRef::alloc(kPageSize);
        break;
      case 2:
        l.payload = common::PayloadRef::alloc(kPageSize);
        l.other = l.payload;
        break;
      case 3:
        l.other = common::PayloadRef::alloc(2 * kPageSize);
        l.payload = l.other.slice(kPageSize, kPageSize);
        break;
      case 4:
        l.payload = common::PayloadRef::alloc(rng.range(1, kPageSize - 1));
        break;
      default:
        l.payload = common::PayloadRef::alloc(kPageSize);
        l.addr += rng.range(1, kPageSize - 1);
        break;
    }
    for (auto& b : l.payload.mutable_span()) b = static_cast<std::uint8_t>(rng.next());
    return l;
  };
  std::size_t handed_over = 0;

  for (int step = 0; step < 400; ++step) {
    const auto op = rng.range(0, 10);
    if (op <= 1 || vmas.empty()) {  // mmap
      const std::uint64_t len = rng.range(1, 4) * kPageSize;
      auto r = mem.mmap(len, "m");
      ASSERT_TRUE(r.is_ok());
      vmas.emplace(r.value(), len);
    } else if (op == 2) {  // two mmap_fixed VMAs, adjacent or one page apart
      const VirtAddr base = 0x3000'0000'0000ULL + step * (1ull << 24);
      const std::uint64_t la = rng.range(1, 3) * kPageSize;
      const std::uint64_t lb = rng.range(1, 3) * kPageSize;
      const VirtAddr b = base + la + (rng.below(2) == 0 ? 0 : kPageSize);
      ASSERT_TRUE(mem.mmap_fixed(base, la, "a").is_ok());
      ASSERT_TRUE(mem.mmap_fixed(b, lb, "b").is_ok());
      vmas.emplace(base, la);
      vmas.emplace(b, lb);
    } else if (op <= 5) {  // write: all of it lands, or none of it does
      // Half the writes are stores through a span, half NIC landings.
      VirtAddr a = 0;
      common::Bytes data;
      common::Status st = common::Status::ok();
      if (rng.below(2) == 0) {
        std::uint64_t n = 0;
        std::tie(a, n) = pick_range();
        data.resize(n);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        st = mem.write(a, data);
      } else {
        Landing l = pick_landing();
        a = l.addr;
        data = l.payload.to_bytes();
        st = mem.write(a, std::move(l.payload));
        if (l.payload.empty()) handed_over++;
        // A copied payload, and any other reference to a payload's block,
        // no longer reaches memory.
        for (auto* p : {&l.payload, &l.other}) std::ranges::fill(p->mutable_span(), 0xEE);
      }
      const std::uint64_t n = data.size();
      if (model_mapped(a, n)) {
        ASSERT_TRUE(st.is_ok());
        for (std::uint64_t i = 0; i < n; ++i) model[a + i] = data[i];
        for (VirtAddr p = proc::page_floor(a); p < a + n; p += kPageSize) dirty.insert(p);
      } else {
        ASSERT_EQ(st.code(), common::Errc::permission_denied);
      }
      expect_model(a, n);
    } else if (op <= 7) {  // read
      const auto [a, n] = pick_range();
      std::vector<std::uint8_t> data(n);
      if (model_mapped(a, n)) {
        ASSERT_TRUE(mem.read(a, data).is_ok());
        expect_model(a, n);
      } else {
        ASSERT_EQ(mem.read(a, data).code(), common::Errc::permission_denied);
      }
    } else if (op == 8) {  // mremap to a fresh spot
      auto it = std::next(vmas.begin(), static_cast<std::ptrdiff_t>(rng.below(vmas.size())));
      const auto [start, len] = *it;
      const VirtAddr target = 0x2000'0000'0000ULL + step * (1ull << 24);
      const std::uint64_t off = rng.below(len / kPageSize) * kPageSize;
      const auto phys = mem.page_at(start + off);
      ASSERT_TRUE(phys.has_value());
      ASSERT_TRUE(mem.mremap(start, target).is_ok());
      EXPECT_EQ(mem.page_at(target + off)->data(), phys->data())
          << "mremap must keep the physical page";
      carry(start, len, target);
      vmas.erase(it);
      vmas.emplace(target, len);
      expect_model(target, len);
    } else if (op == 9) {  // munmap
      auto it = std::next(vmas.begin(), static_cast<std::ptrdiff_t>(rng.below(vmas.size())));
      const auto [start, len] = *it;
      ASSERT_TRUE(mem.munmap(start).is_ok());
      carry(start, len, 0);
      vmas.erase(it);
    } else {  // collect_dirty: pages written since the last collect, sorted
      const std::vector<VirtAddr> want(dirty.begin(), dirty.end());
      ASSERT_EQ(mem.collect_dirty(), want);
      dirty.clear();
    }
    ASSERT_EQ(mem.dirty_count(), dirty.size()) << "step " << step;
  }
  EXPECT_GT(handed_over, 0u) << "no landing took its payload's block";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSpaceModel, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace migr
