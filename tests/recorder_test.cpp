// Flight-recorder unit tests: ring wraparound, dump-on-anomaly contents,
// the disabled-mode zero-allocation guarantee (pinned with a counting
// global operator new in this TU, like alloc_test), and the fabric hook
// decoding real wire headers at admission.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "net/fabric.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_loop.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every allocation in the process funnels through these,
// so "zero allocations" is a hard property, not a sampling claim.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count++;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_alloc_count++;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
// The nothrow variants must funnel through the same malloc path: libstdc++'s
// std::get_temporary_buffer (stable_sort) allocates via nothrow new but frees
// via plain operator delete, and ASan flags the mismatch if the two halves
// come from different allocators.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count++;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
// Every delete frees through one out-of-line helper: std::free inlined
// into a caller that got the pointer from operator new reads to GCC as
// a mismatched pair (-Wmismatched-new-delete), though operator new here
// is malloc.
namespace {
[[gnu::noinline]] void free_counted(void* p) noexcept { std::free(p); }
}  // namespace
void operator delete(void* p) noexcept { free_counted(p); }
void operator delete(void* p, std::size_t) noexcept { free_counted(p); }
void operator delete(void* p, std::align_val_t) noexcept { free_counted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { free_counted(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { free_counted(p); }
void operator delete[](void* p) noexcept { free_counted(p); }
void operator delete[](void* p, std::size_t) noexcept { free_counted(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { free_counted(p); }

namespace migr::obs {
namespace {

PacketRecord rec(std::int64_t ts, std::uint64_t psn, std::uint32_t src = 1,
                 PacketVerdict v = PacketVerdict::delivered) {
  PacketRecord r;
  r.ts_ns = ts;
  r.psn = psn;
  r.src = src;
  r.dst = 2;
  r.qpn = 40 + src;
  r.bytes = 128;
  r.opcode = 2;
  r.verdict = v;
  return r;
}

TEST(FlightRecorderTest, RingWrapsAtCapacityDroppingOldest) {
  FlightRecorder fr(/*per_host_capacity=*/8);
  fr.set_enabled(true);
  for (std::uint64_t i = 0; i < 20; ++i) fr.record(rec(static_cast<std::int64_t>(i), i));

  const auto held = fr.records(1);
  ASSERT_EQ(held.size(), 8u);
  for (std::size_t i = 0; i < held.size(); ++i) EXPECT_EQ(held[i].psn, 12 + i);
  EXPECT_EQ(fr.total_recorded(), 20u);
  EXPECT_EQ(fr.overwritten(), 12u);

  // The last-N view is the tail of the same ring.
  const auto tail = fr.window(1, 3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().psn, 17u);
  EXPECT_EQ(tail.back().psn, 19u);

  // Rings are per source host: a second host starts its own ring.
  fr.record(rec(100, 7, /*src=*/9));
  EXPECT_EQ(fr.records(9).size(), 1u);
  EXPECT_EQ(fr.records(1).size(), 8u);
}

TEST(FlightRecorderTest, SetCapacityDiscardsAndResizes) {
  FlightRecorder fr(4);
  fr.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i) fr.record(rec(0, i));
  fr.set_capacity(2);
  EXPECT_TRUE(fr.records(1).empty());
  for (std::uint64_t i = 0; i < 5; ++i) fr.record(rec(0, i));
  EXPECT_EQ(fr.records(1).size(), 2u);
}

TEST(FlightRecorderTest, DumpCapturesWindowReasonAndDetail) {
  FlightRecorder fr(64);
  fr.set_enabled(true);
  fr.set_dump_window(3000);
  fr.record(rec(0, 111));                 // outside the window at dump time
  fr.record(rec(4000, 222));              // inside
  fr.record(rec(4500, 333, /*src=*/3));   // inside, other host

  const std::string dump =
      fr.trigger_dump(5000, "migration_abort", "\"guest\":7,\"phase\":\"final_transfer\"");
  EXPECT_EQ(fr.dumps_triggered(), 1u);
  EXPECT_EQ(dump, fr.last_dump_json());

  EXPECT_NE(dump.find("\"kind\":\"flight_recorder_dump\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"migration_abort\""), std::string::npos);
  EXPECT_NE(dump.find("\"guest\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"psn\":222"), std::string::npos);
  EXPECT_NE(dump.find("\"psn\":333"), std::string::npos);
  EXPECT_EQ(dump.find("\"psn\":111"), std::string::npos) << "pre-window packet leaked in";
  EXPECT_NE(dump.find("\"trace\":["), std::string::npos);

  // Disabled recorders refuse to dump — anomaly hooks stay free when off.
  fr.set_enabled(false);
  EXPECT_TRUE(fr.trigger_dump(6000, "migration_abort").empty());
  EXPECT_EQ(fr.dumps_triggered(), 1u);
}

TEST(FlightRecorderTest, ExportJsonCarriesEverythingHeld) {
  FlightRecorder fr(16);
  fr.set_enabled(true);
  fr.record(rec(10, 1));
  fr.record(rec(20, 2, /*src=*/5, PacketVerdict::dropped));
  const std::string json = fr.export_json();
  EXPECT_NE(json.find("\"kind\":\"flight_recorder_capture\""), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"dropped\""), std::string::npos);
}

TEST(FlightRecorderTest, DisabledRecorderIsANoOpAndNeverAllocates) {
  FlightRecorder fr(256);
  ASSERT_FALSE(fr.enabled());
  const PacketRecord r = rec(1, 2);

  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 10'000; ++i) fr.record(r);
  EXPECT_EQ(g_alloc_count - before, 0u) << "disabled record() allocated";

  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.records(1).empty());
}

TEST(FlightRecorderTest, EnabledSteadyStateRecordingDoesNotAllocate) {
  FlightRecorder fr(128);
  fr.set_enabled(true);
  fr.record(rec(0, 0));  // first touch materializes host 1's ring

  const std::uint64_t before = g_alloc_count;
  for (std::uint64_t i = 1; i < 1000; ++i) fr.record(rec(static_cast<std::int64_t>(i), i));
  EXPECT_EQ(g_alloc_count - before, 0u) << "steady-state record() allocated";
  EXPECT_EQ(fr.total_recorded(), 1000u);
}

// ---------------------------------------------------------------------------
// Fabric hook: the admission step feeds the recorder for every packet,
// decoding the RNIC wire header (opcode, destination QPN, PSN) at the
// documented fixed offsets.
// ---------------------------------------------------------------------------

constexpr std::size_t kWireHeaderBytes = 71;

net::Packet wire_packet(net::HostId src, net::HostId dst, std::uint8_t op,
                        std::uint32_t dst_qpn, std::uint64_t psn) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.header.resize(kWireHeaderBytes);
  std::uint8_t* h = p.header.data();
  for (std::size_t i = 0; i < kWireHeaderBytes; ++i) h[i] = 0;
  h[0] = op;
  for (int i = 0; i < 4; ++i) h[1 + i] = static_cast<std::uint8_t>(dst_qpn >> (8 * i));
  for (int i = 0; i < 8; ++i) h[9 + i] = static_cast<std::uint8_t>(psn >> (8 * i));
  return p;
}

class FabricHookTest : public ::testing::Test {
 protected:
  FabricHookTest() : fabric_(loop_) {
    EXPECT_TRUE(fabric_.attach_host(1).is_ok());
    EXPECT_TRUE(fabric_.attach_host(2).is_ok());
    fabric_.set_data_handler(2, [this](net::Packet&&) { delivered_++; });
    rec_.set_enabled(true);
    fabric_.set_recorder(&rec_);
    route_ = fabric_.route(1, 2);
    EXPECT_NE(route_, nullptr);
  }

  sim::EventLoop loop_;
  net::Fabric fabric_;
  FlightRecorder rec_{64};
  net::Fabric::Route* route_ = nullptr;
  int delivered_ = 0;
};

TEST_F(FabricHookTest, PerPacketPathDecodesHeaderAndVerdicts) {
  fabric_.send_data(*route_, wire_packet(1, 2, /*op=*/3, /*dst_qpn=*/77, /*psn=*/900'001));
  loop_.run();
  EXPECT_EQ(delivered_, 1);

  auto held = rec_.records(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].opcode, 3u);
  EXPECT_EQ(held[0].qpn, 77u);
  EXPECT_EQ(held[0].psn, 900'001u);
  EXPECT_EQ(held[0].dst, 2u);
  EXPECT_EQ(held[0].verdict, PacketVerdict::delivered);

  // Certain loss: the drop is recorded with its verdict, not silently eaten.
  net::Faults f;
  f.data_loss_prob = 1.0;
  fabric_.set_faults(f);
  fabric_.send_data(*route_, wire_packet(1, 2, 3, 77, 900'002));
  loop_.run();
  held = rec_.records(1);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[1].psn, 900'002u);
  EXPECT_EQ(held[1].verdict, PacketVerdict::dropped);

  // Partitioned destination: same path, partitioned verdict.
  fabric_.set_faults({});
  fabric_.set_partitioned(2, true);
  fabric_.send_data(*route_, wire_packet(1, 2, 3, 77, 900'003));
  loop_.run();
  held = rec_.records(1);
  ASSERT_EQ(held.size(), 3u);
  EXPECT_EQ(held[2].verdict, PacketVerdict::partitioned);

  // Back to back: packets sent at one instant are recorded one by one, in
  // send order, and all arrive.
  fabric_.set_partitioned(2, false);
  for (std::uint64_t psn = 100; psn < 104; ++psn) {
    fabric_.send_data(*route_, wire_packet(1, 2, /*op=*/2, /*dst_qpn=*/55, psn));
  }
  loop_.run();
  EXPECT_EQ(delivered_, 5);
  held = rec_.records(1);
  ASSERT_EQ(held.size(), 7u);
  for (std::size_t i = 3; i < 7; ++i) {
    EXPECT_EQ(held[i].psn, 100 + (i - 3));
    EXPECT_EQ(held[i].qpn, 55u);
    EXPECT_EQ(held[i].opcode, 2u);
    EXPECT_EQ(held[i].verdict, PacketVerdict::delivered);
  }
}

TEST_F(FabricHookTest, NonRnicFramesRecordWithSentinelOpcode) {
  net::Packet p(1, 2, common::Bytes{0xde, 0xad, 0xbe, 0xef});
  fabric_.send_data(*route_, std::move(p));
  loop_.run();
  const auto held = rec_.records(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].opcode, 0xffu);
  EXPECT_EQ(held[0].qpn, 0u);
  EXPECT_EQ(held[0].bytes, 4u);
}

}  // namespace
}  // namespace migr::obs
