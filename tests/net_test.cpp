#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/fabric.hpp"

namespace migr::net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fabric_.attach_host(1).is_ok());
    ASSERT_TRUE(fabric_.attach_host(2).is_ok());
  }

  sim::EventLoop loop_;
  Fabric fabric_{loop_, FabricConfig{}, 99};
};

common::Bytes make_payload(std::size_t n, std::uint8_t fill = 0xCD) {
  return common::Bytes(n, fill);
}

TEST_F(FabricTest, DuplicateAttachRejected) {
  EXPECT_EQ(fabric_.attach_host(1).code(), common::Errc::already_exists);
}

TEST_F(FabricTest, DataPacketDelivered) {
  std::size_t received = 0;
  fabric_.set_data_handler(2, [&](Packet&& p) {
    received = p.body.size();
    EXPECT_EQ(p.src, 1u);
  });
  fabric_.send_data(Packet{1, 2, make_payload(1000)});
  loop_.run();
  EXPECT_EQ(received, 1000u);
}

TEST_F(FabricTest, DeliveryPaysSerializationAndPropagation) {
  sim::TimeNs arrival = -1;
  fabric_.set_data_handler(2, [&](Packet&&) { arrival = loop_.now(); });
  const std::size_t bytes = 4096;
  fabric_.send_data(Packet{1, 2, make_payload(bytes)});
  loop_.run();
  const auto expected = fabric_.wire_time(bytes + fabric_.config().header_bytes) +
                        fabric_.config().propagation;
  EXPECT_EQ(arrival, expected);
}

TEST_F(FabricTest, EgressSerializesBackToBack) {
  std::vector<sim::TimeNs> arrivals;
  fabric_.set_data_handler(2, [&](Packet&&) { arrivals.push_back(loop_.now()); });
  for (int i = 0; i < 3; ++i) fabric_.send_data(Packet{1, 2, make_payload(4096)});
  loop_.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const auto per_pkt = fabric_.wire_time(4096 + fabric_.config().header_bytes);
  EXPECT_EQ(arrivals[1] - arrivals[0], per_pkt);
  EXPECT_EQ(arrivals[2] - arrivals[1], per_pkt);
}

TEST_F(FabricTest, LossInjectionDropsSome) {
  fabric_.set_faults(Faults{.data_loss_prob = 0.5});
  int received = 0;
  fabric_.set_data_handler(2, [&](Packet&&) { received++; });
  for (int i = 0; i < 200; ++i) fabric_.send_data(Packet{1, 2, make_payload(100)});
  loop_.run();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(fabric_.stats(1).data_packets_dropped + static_cast<std::uint64_t>(received),
            200u);
}

TEST_F(FabricTest, PartitionKillsBothPlanes) {
  int data = 0, ctrl = 0;
  fabric_.set_data_handler(2, [&](Packet&&) { data++; });
  fabric_.register_service(2, "svc", [&](HostId, common::Bytes&&) { ctrl++; });
  fabric_.set_partitioned(2, true);
  fabric_.send_data(Packet{1, 2, make_payload(10)});
  (void)fabric_.send_ctrl(1, 2, "svc", make_payload(10));
  loop_.run();
  EXPECT_EQ(data, 0);
  EXPECT_EQ(ctrl, 0);
  fabric_.set_partitioned(2, false);
  fabric_.send_data(Packet{1, 2, make_payload(10)});
  (void)fabric_.send_ctrl(1, 2, "svc", make_payload(10));
  loop_.run();
  EXPECT_EQ(data, 1);
  EXPECT_EQ(ctrl, 1);
}

TEST_F(FabricTest, CtrlPlaneRoutedByService) {
  std::string got;
  fabric_.register_service(2, "migr.notify", [&](HostId src, common::Bytes&& b) {
    got.assign(b.begin(), b.end());
    EXPECT_EQ(src, 1u);
  });
  common::Bytes msg{'h', 'i'};
  (void)fabric_.send_ctrl(1, 2, "migr.notify", msg);
  loop_.run();
  EXPECT_EQ(got, "hi");
}

TEST_F(FabricTest, CtrlPlaneInOrderPerPair) {
  std::vector<int> order;
  fabric_.register_service(2, "svc", [&](HostId, common::Bytes&& b) {
    order.push_back(b[0]);
  });
  for (int i = 0; i < 5; ++i) {
    (void)fabric_.send_ctrl(1, 2, "svc", common::Bytes{static_cast<std::uint8_t>(i)});
  }
  loop_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(FabricTest, CtrlTransferTimeScalesWithSize) {
  // A 100 MB image at 100 Gbps should take ~8 ms of port time.
  const auto done = fabric_.send_ctrl(1, 2, "svc", make_payload(100 << 20));
  ASSERT_TRUE(done.is_ok());
  EXPECT_NEAR(sim::to_msec(done.value()), 8.39, 0.1);
}

TEST_F(FabricTest, CtrlToUnattachedHostReportsError) {
  EXPECT_EQ(fabric_.send_ctrl(1, 99, "svc", make_payload(8)).code(),
            common::Errc::not_found);
  EXPECT_EQ(fabric_.send_ctrl(99, 1, "svc", make_payload(8)).code(),
            common::Errc::not_found);
}

TEST_F(FabricTest, UnregisteredServiceIsSilentlyDropped) {
  (void)fabric_.send_ctrl(1, 2, "ghost", make_payload(1));
  loop_.run();  // no crash, nothing delivered
  SUCCEED();
}

TEST_F(FabricTest, StatsCount) {
  fabric_.set_data_handler(2, [](Packet&&) {});
  fabric_.send_data(Packet{1, 2, make_payload(500)});
  loop_.run();
  EXPECT_EQ(fabric_.stats(1).data_packets_tx, 1u);
  EXPECT_EQ(fabric_.stats(1).data_bytes_tx, 500u);
  EXPECT_EQ(fabric_.stats(2).data_packets_rx, 1u);
  EXPECT_EQ(fabric_.stats(2).data_bytes_rx, 500u);
}

TEST_F(FabricTest, CtrlDropsAreExportedToTheRegistry) {
  fabric_.set_faults(Faults{.ctrl_loss_prob = 1.0});
  (void)fabric_.send_ctrl(1, 2, "svc", make_payload(64));
  (void)fabric_.send_ctrl(1, 2, "svc", make_payload(64));
  loop_.run();
  EXPECT_EQ(fabric_.stats(1).ctrl_messages_dropped, 2u);
  double exported = -1;
  for (const auto& e : obs::Registry::global().snapshot()) {
    if (e.name == "fabric.port{host=1}.ctrl_messages_dropped") exported = e.value;
  }
  EXPECT_EQ(exported, 2.0);
}

// ---------------------------------------------------------------------------
// One admission step: a train and the same packets sent one by one
// ---------------------------------------------------------------------------

// A frame with the RNIC wire-header layout the flight recorder decodes
// (opcode at [0], destination QPN at [1..4], PSN at [9..16], 71 bytes), so
// every record names its packet.
Packet framed(std::uint64_t psn, std::size_t body_bytes) {
  Packet p(1, 2, make_payload(body_bytes, static_cast<std::uint8_t>(psn)));
  p.header.resize(71);
  std::uint8_t* h = p.header.data();
  for (std::size_t i = 0; i < 71; ++i) h[i] = 0;
  h[0] = 1;
  h[1] = 9;
  for (int i = 0; i < 8; ++i) h[9 + i] = static_cast<std::uint8_t>(psn >> (8 * i));
  return p;
}

std::uint64_t framed_psn(const Packet& p) {
  std::uint64_t psn = 0;
  for (int i = 0; i < 8; ++i) psn |= static_cast<std::uint64_t>(p.header.data()[9 + i]) << (8 * i);
  return psn;
}

std::string render(const PortStats& s) {
  return std::to_string(s.data_packets_tx) + "," + std::to_string(s.data_packets_rx) + "," +
         std::to_string(s.data_bytes_tx) + "," + std::to_string(s.data_bytes_rx) + "," +
         std::to_string(s.data_packets_dropped) + "," +
         std::to_string(s.data_packets_reordered);
}

struct TrialTally {
  std::uint64_t dropped = 0;
  std::uint64_t reordered = 0;
  std::uint64_t partitioned = 0;   // at admission
  std::uint64_t mid_flight = 0;    // eaten in flight by a partition
};

// One seeded trial: a fresh fabric seeded `seed`, loss and reorder faults
// and a partition drawn from `seed`, and 1-64 framed packets of mixed sizes
// sent at one instant — as one train or one by one through send_data.
// Everything observable renders into the returned string: deliveries (time,
// order, PSN, bytes), port stats, link counters, recorder records, and the
// fault rng's next draws (a probe packet held back by a reorder delay drawn
// from a 1 s range).
std::string run_trial(std::uint64_t seed, bool as_train, TrialTally* tally) {
  common::Rng params(seed * 0x9E3779B97F4A7C15ull + 1);
  sim::EventLoop loop;
  Fabric fabric(loop, FabricConfig{}, seed);
  obs::FlightRecorder rec(1024);
  rec.set_enabled(true);
  fabric.set_recorder(&rec);
  EXPECT_TRUE(fabric.attach_host(1).is_ok());
  EXPECT_TRUE(fabric.attach_host(2).is_ok());
  std::string out = "deliveries:";
  fabric.set_data_handler(2, [&](Packet&& p) {
    out += " " + std::to_string(loop.now()) + "/" + std::to_string(framed_psn(p)) + "/" +
           std::to_string(p.wire_size());
  });
  Fabric::Route* r = fabric.route(1, 2);
  const std::uint64_t bytes0 = r->bytes->value();
  const std::uint64_t packets0 = r->packets->value();
  const std::uint64_t drops0 = r->drops->value();

  constexpr double kLoss[] = {0.0, 0.05, 0.3};
  constexpr double kReorder[] = {0.0, 0.2, 0.6};
  Faults f;
  f.data_loss_prob = kLoss[params.below(3)];
  f.reorder_prob = kReorder[params.below(3)];
  f.reorder_delay = static_cast<sim::DurationNs>(params.range(1, sim::usec(20)));
  fabric.set_faults(f);
  const std::uint64_t n = params.range(1, 64);
  std::vector<Packet> packets;
  for (std::uint64_t i = 0; i < n; ++i) packets.push_back(framed(1000 + i, params.below(4097)));
  switch (params.below(4)) {
    case 0:  // a partitioned endpoint drops everything at admission
      fabric.set_partitioned(params.chance(0.5) ? 1 : 2, true);
      break;
    case 1: {  // a partition flaps while the packets are in flight
      const sim::TimeNs on = static_cast<sim::TimeNs>(params.range(0, sim::usec(30)));
      const sim::TimeNs off = on + static_cast<sim::TimeNs>(params.range(1, sim::usec(10)));
      loop.post_at(on, [&fabric] { fabric.set_partitioned(2, true); });
      loop.post_at(off, [&fabric] { fabric.set_partitioned(2, false); });
      break;
    }
    default:
      break;
  }

  if (as_train) {
    std::vector<Packet> train = fabric.acquire_train();
    for (Packet& p : packets) train.push_back(std::move(p));
    fabric.send_data_burst(*r, std::move(train));
  } else {
    for (Packet& p : packets) fabric.send_data(*r, std::move(p));
  }
  loop.run();
  fabric.set_partitioned(1, false);
  fabric.set_partitioned(2, false);

  fabric.set_faults(Faults{.reorder_prob = 1.0, .reorder_delay = sim::sec(1)});
  fabric.send_data(*r, framed(1, 8));
  loop.run();

  out += "\nstats: " + render(fabric.stats(1)) + " | " + render(fabric.stats(2));
  out += "\nlink: " + std::to_string(r->bytes->value() - bytes0) + "," +
         std::to_string(r->packets->value() - packets0) + "," +
         std::to_string(r->drops->value() - drops0);
  out += "\nrecords:";
  for (const obs::PacketRecord& pr : rec.records(1)) {
    out += " " + std::to_string(pr.ts_ns) + "/" + std::to_string(pr.psn) + "/" +
           std::to_string(pr.bytes) + "/" + obs::to_string(pr.verdict);
    if (tally != nullptr) {
      switch (pr.verdict) {
        case obs::PacketVerdict::dropped: tally->dropped++; break;
        case obs::PacketVerdict::reordered: tally->reordered++; break;
        case obs::PacketVerdict::partitioned:
          (pr.ts_ns == 0 ? tally->partitioned : tally->mid_flight)++;
          break;
        default: break;
      }
    }
  }
  return out;
}

TEST(FabricTrainTest, TrainMatchesPerPacketSendsUnderFaults) {
  TrialTally tally;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::string one_by_one = run_trial(seed, /*as_train=*/false, nullptr);
    const std::string train = run_trial(seed, /*as_train=*/true, &tally);
    ASSERT_EQ(train, one_by_one) << "seed " << seed;
  }
  // The sweep reaches every fault the admission step decides.
  EXPECT_GT(tally.dropped, 0u);
  EXPECT_GT(tally.reordered, 0u);
  EXPECT_GT(tally.partitioned, 0u);
  EXPECT_GT(tally.mid_flight, 0u);
}

}  // namespace
}  // namespace migr::net
