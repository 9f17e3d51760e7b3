#include <gtest/gtest.h>

#include <algorithm>
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
// One admission step, checked against a reference model of it
// ---------------------------------------------------------------------------

// A frame with the RNIC wire-header layout the flight recorder decodes
// (opcode at [0], destination QPN at [1..4], PSN at [9..16], 71 bytes), so
// every record names its packet.
constexpr std::size_t kHeaderBytes = 71;

Packet framed(std::uint64_t psn, std::size_t body_bytes) {
  Packet p(1, 2, make_payload(body_bytes, static_cast<std::uint8_t>(psn)));
  p.header.resize(kHeaderBytes);
  std::uint8_t* h = p.header.data();
  for (std::size_t i = 0; i < kHeaderBytes; ++i) h[i] = 0;
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

std::string render_delivery(sim::TimeNs at, std::uint64_t psn, std::size_t bytes) {
  return " " + std::to_string(at) + "/" + std::to_string(psn) + "/" + std::to_string(bytes);
}

std::string render_record(sim::TimeNs at, std::uint64_t psn, std::size_t bytes,
                          obs::PacketVerdict verdict) {
  return render_delivery(at, psn, bytes) + "/" + obs::to_string(verdict);
}

// One seeded trial's inputs: loss and reorder faults, 1-64 framed packets of
// mixed sizes sent from host 1 to host 2 at one instant, and either a
// partitioned endpoint at admission or a partition of host 2 that flaps
// while the packets are in flight.
struct Trial {
  Faults faults;
  std::vector<std::size_t> bodies;  // body bytes; packet i carries PSN 1000 + i
  HostId cut = 0;                   // partitioned before the sends (0: none)
  sim::TimeNs flap_on = -1;         // host 2 partitioned over [flap_on, flap_off)
  sim::TimeNs flap_off = -1;
};

Trial draw_trial(std::uint64_t seed) {
  common::Rng params(seed * 0x9E3779B97F4A7C15ull + 1);
  constexpr double kLoss[] = {0.0, 0.05, 0.3};
  constexpr double kReorder[] = {0.0, 0.2, 0.6};
  Trial t;
  t.faults.data_loss_prob = kLoss[params.below(3)];
  t.faults.reorder_prob = kReorder[params.below(3)];
  t.faults.reorder_delay = static_cast<sim::DurationNs>(params.range(1, sim::usec(20)));
  const std::uint64_t n = params.range(1, 64);
  for (std::uint64_t i = 0; i < n; ++i) t.bodies.push_back(params.below(4097));
  switch (params.below(4)) {
    case 0:
      t.cut = params.chance(0.5) ? 1 : 2;
      break;
    case 1:
      t.flap_on = static_cast<sim::TimeNs>(params.range(0, sim::usec(30)));
      t.flap_off = t.flap_on + static_cast<sim::TimeNs>(params.range(1, sim::usec(10)));
      break;
    default:
      break;
  }
  return t;
}

// The probe that follows every trial: one packet held back by a delay drawn
// from a 1 s range, so its arrival shows the fault rng's next draws.
constexpr Faults kProbeFaults{.reorder_prob = 1.0, .reorder_delay = sim::sec(1)};

struct TrialTally {
  std::uint64_t dropped = 0;
  std::uint64_t reordered = 0;
  std::uint64_t partitioned = 0;   // at admission
  std::uint64_t mid_flight = 0;    // eaten in flight by a partition
};

// Runs `t` through a fabric seeded `seed` with the flight recorder on, then
// the probe. Everything observable renders into the returned string:
// deliveries (time, PSN, bytes, in order), port stats, link counters and
// recorder records.
std::string run_fabric(std::uint64_t seed, const Trial& t, TrialTally* tally) {
  sim::EventLoop loop;
  Fabric fabric(loop, FabricConfig{}, seed);
  obs::FlightRecorder rec(1024);
  rec.set_enabled(true);
  fabric.set_recorder(&rec);
  EXPECT_TRUE(fabric.attach_host(1).is_ok());
  EXPECT_TRUE(fabric.attach_host(2).is_ok());
  std::string out = "deliveries:";
  fabric.set_data_handler(2, [&](Packet&& p) {
    out += render_delivery(loop.now(), framed_psn(p), p.wire_size());
  });
  Fabric::Route* r = fabric.route(1, 2);
  const std::uint64_t bytes0 = r->bytes->value();
  const std::uint64_t packets0 = r->packets->value();
  const std::uint64_t drops0 = r->drops->value();

  fabric.set_faults(t.faults);
  if (t.cut != 0) fabric.set_partitioned(t.cut, true);
  if (t.flap_on >= 0) {
    loop.post_at(t.flap_on, [&fabric] { fabric.set_partitioned(2, true); });
    loop.post_at(t.flap_off, [&fabric] { fabric.set_partitioned(2, false); });
  }
  for (std::size_t i = 0; i < t.bodies.size(); ++i) {
    fabric.send_data(*r, framed(1000 + i, t.bodies[i]));
  }
  loop.run();
  fabric.set_partitioned(1, false);
  fabric.set_partitioned(2, false);
  fabric.set_faults(kProbeFaults);
  fabric.send_data(*r, framed(1, 8));
  loop.run();

  out += "\nstats: " + render(fabric.stats(1)) + " | " + render(fabric.stats(2));
  out += "\nlink: " + std::to_string(r->bytes->value() - bytes0) + "," +
         std::to_string(r->packets->value() - packets0) + "," +
         std::to_string(r->drops->value() - drops0);
  out += "\nrecords:";
  for (const obs::PacketRecord& pr : rec.records(1)) {
    out += render_record(pr.ts_ns, pr.psn, pr.bytes, pr.verdict);
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

// The admission step as fabric.hpp documents it, rendered like run_fabric.
// Per packet, in send order: count it sent; reserve egress (serialization
// starts when the port is free, delivery follows after propagation); drop
// it if an endpoint is partitioned, with no draw; else one draw for loss;
// else one draw for holding it back and, if held back, one for the extra
// delay, all from common::Rng(seed). Deliveries run in time order, ties in
// send order, and a partition flap (posted before the sends) eats a
// delivery in [flap_on, flap_off).
std::string run_model(std::uint64_t seed, const Trial& t) {
  common::Rng rng(seed);
  const FabricConfig cfg;
  PortStats tx, rx;
  std::uint64_t link_bytes = 0;
  std::uint64_t link_packets = 0;
  sim::TimeNs egress_free = 0;
  std::string records;
  struct Flight {
    sim::TimeNs at;
    std::uint64_t psn;
    std::size_t bytes;
  };
  std::vector<Flight> flights;  // admitted, in send order

  auto admit = [&](sim::TimeNs now, std::uint64_t psn, std::size_t bytes, const Faults& f,
                   bool cut) {
    tx.data_packets_tx++;
    tx.data_bytes_tx += bytes;
    link_packets++;
    link_bytes += bytes;
    egress_free = std::max(now, egress_free) +
                  sim::transmit_time(bytes + cfg.header_bytes, cfg.link_gbps);
    sim::TimeNs at = egress_free + cfg.propagation;
    if (cut || (f.data_loss_prob > 0 && rng.chance(f.data_loss_prob))) {
      tx.data_packets_dropped++;
      records += render_record(now, psn, bytes,
                               cut ? obs::PacketVerdict::partitioned : obs::PacketVerdict::dropped);
      return;
    }
    obs::PacketVerdict verdict = obs::PacketVerdict::delivered;
    if (f.reorder_prob > 0 && f.reorder_delay > 0 && rng.chance(f.reorder_prob)) {
      at += static_cast<sim::DurationNs>(
          rng.range(1, static_cast<std::uint64_t>(f.reorder_delay)));
      tx.data_packets_reordered++;
      verdict = obs::PacketVerdict::reordered;
    }
    records += render_record(now, psn, bytes, verdict);
    flights.push_back({at, psn, bytes});
  };

  for (std::size_t i = 0; i < t.bodies.size(); ++i) {
    admit(0, 1000 + i, kHeaderBytes + t.bodies[i], t.faults, t.cut != 0);
  }
  std::stable_sort(flights.begin(), flights.end(),
                   [](const Flight& a, const Flight& b) { return a.at < b.at; });
  std::string deliveries = "deliveries:";
  sim::TimeNs now = std::max<sim::TimeNs>(0, t.flap_off);
  for (const Flight& fl : flights) {
    now = std::max(now, fl.at);
    if (fl.at >= t.flap_on && fl.at < t.flap_off) {
      records += render_record(fl.at, fl.psn, fl.bytes, obs::PacketVerdict::partitioned);
      continue;
    }
    rx.data_packets_rx++;
    rx.data_bytes_rx += fl.bytes;
    deliveries += render_delivery(fl.at, fl.psn, fl.bytes);
  }

  flights.clear();
  admit(now, 1, kHeaderBytes + 8, kProbeFaults, /*cut=*/false);
  rx.data_packets_rx++;
  rx.data_bytes_rx += flights[0].bytes;
  deliveries += render_delivery(flights[0].at, flights[0].psn, flights[0].bytes);

  return deliveries + "\nstats: " + render(tx) + " | " + render(rx) +
         "\nlink: " + std::to_string(link_bytes) + "," + std::to_string(link_packets) + "," +
         std::to_string(tx.data_packets_dropped) + "\nrecords:" + records;
}

TEST(FabricAdmissionTest, SendDataMatchesTheReferenceModelUnderFaults) {
  TrialTally tally;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Trial t = draw_trial(seed);
    ASSERT_EQ(run_fabric(seed, t, &tally), run_model(seed, t)) << "seed " << seed;
  }
  // The sweep reaches every fault the admission step decides.
  EXPECT_GT(tally.dropped, 0u);
  EXPECT_GT(tally.reordered, 0u);
  EXPECT_GT(tally.partitioned, 0u);
  EXPECT_GT(tally.mid_flight, 0u);
}

}  // namespace
}  // namespace migr::net
