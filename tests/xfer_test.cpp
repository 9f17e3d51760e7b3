// TransferMux + page-suppression codec unit tests: reassembly fidelity,
// in-order delivery of pipelined transfers, per-stream accounting balance
// (attempted == delivered + lost) on clean, lossy, and aborted transfers,
// chunk deadlines, pacing scale-out, and the zero/delta page encodings
// (raw == shipped + suppressed by construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "criu/pagedelta.hpp"
#include "migr/xfer.hpp"
#include "net/fabric.hpp"
#include "sim/event_loop.hpp"

namespace migr::migrlib {
namespace {

using common::Bytes;

class XferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fabric_.attach_host(1).is_ok());
    ASSERT_TRUE(fabric_.attach_host(2).is_ok());
  }

  Bytes make_payload(std::size_t n) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; i++) b[i] = static_cast<std::uint8_t>(i * 131 + 7);
    return b;
  }

  void run_until_idle() {
    while (loop_.run_for(sim::msec(50)) > 0) {
    }
  }

  sim::EventLoop loop_;
  net::Fabric fabric_{loop_, net::FabricConfig{}, 99};
};

TEST_F(XferTest, SingleStreamDeliversPayloadIntact) {
  XferOptions xo;
  xo.streams = 1;
  xo.chunk_bytes = 4096;
  TransferMux mux(loop_, fabric_, "t.xfer.0", 1, 2, xo);
  Bytes got;
  int fails = 0;
  mux.open([&](Bytes&& p) { got = std::move(p); },
           [&](const common::Status&) { fails++; });
  const Bytes sent = make_payload(100 * 1024 + 123);
  mux.send(sent);
  run_until_idle();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(fails, 0);
  EXPECT_FALSE(mux.busy());
  const XferStats& xs = mux.stats();
  EXPECT_EQ(xs.transfers, 1u);
  EXPECT_EQ(xs.lost(), 0u);
  EXPECT_EQ(xs.attempted(), xs.delivered());
  EXPECT_EQ(xs.attempted(), TransferMux::wire_size(sent.size(), xo.chunk_bytes));
}

TEST_F(XferTest, MultiStreamRoundRobinShardsAndBalances) {
  XferOptions xo;
  xo.streams = 4;
  xo.chunk_bytes = 4096;
  TransferMux mux(loop_, fabric_, "t.xfer.1", 1, 2, xo);
  Bytes got;
  mux.open([&](Bytes&& p) { got = std::move(p); }, [](const common::Status&) {});
  const Bytes sent = make_payload(64 * 4096);  // 64 chunks, 16 per stream
  mux.send(sent);
  run_until_idle();
  EXPECT_EQ(got, sent);
  const XferStats& xs = mux.stats();
  ASSERT_EQ(xs.streams.size(), 4u);
  for (const XferStreamStats& s : xs.streams) {
    EXPECT_EQ(s.chunks, 16u);  // deterministic i % N sharding
    EXPECT_EQ(s.bytes_attempted, s.bytes_delivered + s.bytes_lost());
    EXPECT_EQ(s.bytes_lost(), 0u);
  }
  EXPECT_EQ(xs.attempted(), TransferMux::wire_size(sent.size(), xo.chunk_bytes));
}

TEST_F(XferTest, BackToBackSendsDeliverInOrder) {
  XferOptions xo;
  xo.streams = 2;
  xo.chunk_bytes = 2048;
  TransferMux mux(loop_, fabric_, "t.xfer.2", 1, 2, xo);
  std::vector<Bytes> got;
  mux.open([&](Bytes&& p) { got.push_back(std::move(p)); },
           [](const common::Status&) {});
  const Bytes a = make_payload(10 * 1024);
  const Bytes b = make_payload(3 * 1024 + 5);
  const Bytes c = make_payload(1);
  mux.send(a);
  mux.send(b);
  mux.send(c);
  run_until_idle();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
  EXPECT_EQ(got[2], c);
  EXPECT_EQ(mux.stats().transfers, 3u);
}

// Transfers pipeline: back-to-back payloads go on the wire at once instead
// of each waiting for its predecessor's ACKs, and still arrive whole and in
// send order. The post-copy pump sends one reply per demand fault, so 64
// small transfers must take about one round trip, not 64.
TEST_F(XferTest, BackToBackTransfersPipeline) {
  XferOptions xo;
  TransferMux mux(loop_, fabric_, "t.xfer.7", 1, 2, xo);
  std::vector<Bytes> got;
  sim::TimeNs last_at = 0;
  mux.open(
      [&](Bytes&& p) {
        got.push_back(std::move(p));
        last_at = loop_.now();
      },
      [](const common::Status&) {});
  std::vector<Bytes> sent;
  for (std::size_t i = 0; i < 64; i++) {
    sent.push_back(make_payload(100 + i));
    mux.send(sent.back());
  }
  run_until_idle();
  EXPECT_EQ(got, sent);
  EXPECT_FALSE(mux.busy());
  EXPECT_EQ(mux.stats().transfers, 64u);
  // One round trip is 2 x 2 us of propagation; stop-and-wait takes 64.
  EXPECT_LT(last_at, sim::usec(20));
}

TEST_F(XferTest, LossyCtrlPlaneRetriesAndAccountingBalances) {
  net::Faults f;
  f.ctrl_loss_prob = 0.2;
  fabric_.set_faults(f);
  XferOptions xo;
  xo.streams = 4;
  xo.chunk_bytes = 4096;
  xo.chunk_timeout = sim::msec(2);
  xo.max_chunk_retries = 50;  // lossy but must complete
  TransferMux mux(loop_, fabric_, "t.xfer.3", 1, 2, xo);
  Bytes got;
  int fails = 0;
  mux.open([&](Bytes&& p) { got = std::move(p); },
           [&](const common::Status&) { fails++; });
  const Bytes sent = make_payload(64 * 4096);
  mux.send(sent);
  run_until_idle();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(fails, 0);
  const XferStats& xs = mux.stats();
  EXPECT_GT(xs.retries(), 0u) << "a 20% lossy link must hit the retry path";
  // Once the fabric quiesced, the balance holds exactly, per stream and in
  // total: every attempted frame either arrived or was dropped.
  std::uint64_t per_stream_attempted = 0;
  for (const XferStreamStats& s : xs.streams) {
    EXPECT_EQ(s.bytes_attempted, s.bytes_delivered + s.bytes_lost());
    per_stream_attempted += s.bytes_attempted;
  }
  EXPECT_EQ(per_stream_attempted, xs.attempted());
  EXPECT_EQ(xs.attempted(), xs.delivered() + xs.lost());
  EXPECT_GT(xs.attempted(), TransferMux::wire_size(sent.size(), xo.chunk_bytes));
}

TEST_F(XferTest, CancelMidTransferKeepsStatsBalanced) {
  XferOptions xo;
  xo.streams = 2;
  xo.chunk_bytes = 4096;
  xo.stream_gbps = 1.0;  // slow enough that cancel lands mid-flight
  TransferMux mux(loop_, fabric_, "t.xfer.4", 1, 2, xo);
  Bytes got;
  mux.open([&](Bytes&& p) { got = std::move(p); }, [](const common::Status&) {});
  mux.send(make_payload(256 * 4096));
  loop_.run_for(sim::usec(200));
  EXPECT_TRUE(mux.busy());
  mux.cancel();
  EXPECT_FALSE(mux.busy());
  run_until_idle();  // in-flight frames land on a dead rx; acks ignored
  EXPECT_TRUE(got.empty());
  const XferStats& xs = mux.stats();
  EXPECT_GT(xs.attempted(), 0u) << "an aborted transfer still reports attempts";
  EXPECT_EQ(xs.attempted(), xs.delivered() + xs.lost());
  EXPECT_EQ(xs.transfers, 0u);
}

TEST_F(XferTest, ChunkRetryExhaustionFailsTransfer) {
  net::Faults f;
  f.ctrl_loss_prob = 1.0;  // nothing ever arrives
  fabric_.set_faults(f);
  XferOptions xo;
  xo.chunk_timeout = sim::usec(500);
  xo.max_chunk_retries = 3;
  TransferMux mux(loop_, fabric_, "t.xfer.5", 1, 2, xo);
  int fails = 0;
  common::Status last = common::Status::ok();
  mux.open([](Bytes&&) { FAIL() << "delivery on a dead link"; },
           [&](const common::Status& st) {
             fails++;
             last = st;
           });
  mux.send(make_payload(4096));
  run_until_idle();
  EXPECT_EQ(fails, 1);
  EXPECT_EQ(last.code(), common::Errc::timeout);
  EXPECT_FALSE(mux.busy());
  const XferStats& xs = mux.stats();
  EXPECT_EQ(xs.delivered(), 0u);
  EXPECT_EQ(xs.lost(), xs.attempted());
}

// An unpaced stream hands every chunk to the port at once and the fabric
// serializes them back to back: 16 x 256 KiB take ~340 us at 100 Gbps. A
// chunk's deadline must start when it has left the port, or the queued tail
// times out behind its own head and is sent twice on a clean link.
TEST_F(XferTest, ChunkDeadlineStartsWhenTheChunkLeavesThePort) {
  XferOptions xo;
  xo.streams = 1;
  xo.chunk_bytes = 256 * 1024;
  xo.chunk_timeout = sim::usec(200);
  TransferMux mux(loop_, fabric_, "t.xfer.6", 1, 2, xo);
  Bytes got;
  int fails = 0;
  mux.open([&](Bytes&& p) { got = std::move(p); },
           [&](const common::Status&) { fails++; });
  const Bytes sent = make_payload(4 << 20);
  mux.send(sent);
  run_until_idle();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(fails, 0);
  const XferStats& xs = mux.stats();
  EXPECT_EQ(xs.retries(), 0u) << "a clean link re-sent queued chunks";
  EXPECT_EQ(xs.attempted(), TransferMux::wire_size(sent.size(), xo.chunk_bytes));
  EXPECT_EQ(xs.lost(), 0u);
}

// Pacing is the multifd motivation: with a per-stream ceiling, N streams
// finish the same payload materially sooner.
TEST_F(XferTest, ParallelStreamsScaleTransferTime) {
  auto timed_transfer = [&](std::uint32_t streams, const std::string& base) {
    XferOptions xo;
    xo.streams = streams;
    xo.stream_gbps = 25.0;
    xo.chunk_bytes = 64 * 1024;
    TransferMux mux(loop_, fabric_, base, 1, 2, xo);
    bool done = false;
    sim::TimeNs done_at = 0;
    // Capture the delivery instant in the callback: run_until_idle() advances
    // now() to the end of its polling window, which would quantize the timing.
    mux.open([&](Bytes&&) { done = true; done_at = loop_.now(); },
             [](const common::Status&) {});
    const sim::TimeNs t0 = loop_.now();
    mux.send(make_payload(4u << 20));
    run_until_idle();
    EXPECT_TRUE(done);
    return done_at - t0;
  };
  const sim::DurationNs one = timed_transfer(1, "t.xfer.p1");
  const sim::DurationNs four = timed_transfer(4, "t.xfer.p4");
  EXPECT_LT(four, one);
  EXPECT_GE(one, 2 * four) << "4 streams must be at least 2x faster than 1";
}

// ---------------------------------------------------------------------------
// Page suppression codec
// ---------------------------------------------------------------------------

// Page sets only view their pages; the codec tests keep the contents here.
// Deque elements never move, so the views stay valid as pages are added.
struct PageStore {
  std::deque<Bytes> contents;

  criu::PageSet::Page page(proc::VirtAddr addr, std::uint8_t fill) {
    return {addr, contents.emplace_back(proc::kPageSize, fill)};
  }
};

bool same(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return std::ranges::equal(a, b);
}

TEST(PageDeltaTest, RoundTripAllEncodings) {
  criu::PageDeltaEncoder enc;
  criu::PageDeltaDecoder dec;
  PageStore store;

  // Round 1: one zero page, one content page -> kZero + kFull.
  criu::PageSet r1;
  r1.pages.push_back(store.page(0x1000, 0x00));
  r1.pages.push_back(store.page(0x2000, 0xAB));
  auto got1 = dec.decode(enc.encode(r1));
  ASSERT_TRUE(got1.is_ok());
  ASSERT_EQ(got1->pages.size(), 2u);
  EXPECT_EQ(got1->pages[0].addr, 0x1000u);
  EXPECT_TRUE(same(got1->pages[0].data, r1.pages[0].data));
  EXPECT_TRUE(same(got1->pages[1].data, r1.pages[1].data));

  // Round 2: page 0x2000 unchanged (kSame -> omitted from the restore set),
  // page 0x1000 gets a tiny diff (kDelta).
  criu::PageSet r2;
  Bytes changed(proc::kPageSize, 0x00);
  changed[17] = 0x5A;
  changed[900] = 0x07;
  r2.pages.push_back({0x1000, changed});
  r2.pages.push_back(store.page(0x2000, 0xAB));
  const Bytes wire2 = enc.encode(r2);
  EXPECT_LT(wire2.size(), proc::kPageSize) << "delta+same round must ship tiny";
  auto got2 = dec.decode(wire2);
  ASSERT_TRUE(got2.is_ok());
  ASSERT_EQ(got2->pages.size(), 1u) << "unchanged page is suppressed entirely";
  EXPECT_EQ(got2->pages[0].addr, 0x1000u);
  EXPECT_TRUE(same(got2->pages[0].data, changed));

  const criu::PageDeltaStats& st = enc.stats();
  EXPECT_EQ(st.pages_zero, 1u);
  EXPECT_EQ(st.pages_full, 1u);
  EXPECT_EQ(st.pages_same, 1u);
  EXPECT_EQ(st.pages_delta, 1u);
  EXPECT_EQ(st.bytes_raw, st.bytes_shipped + st.bytes_suppressed);
  EXPECT_EQ(st.bytes_raw, 4u * proc::kPageSize);
}

TEST(PageDeltaTest, ZeroPageWorkloadSuppressesFiveFold) {
  criu::PageDeltaEncoder enc;
  PageStore store;
  criu::PageSet zeros;
  for (int i = 0; i < 64; i++) zeros.pages.push_back(store.page(0x1000 * (i + 1), 0x00));
  const Bytes wire = enc.encode(zeros);
  EXPECT_GE(zeros.byte_size(), 5 * wire.size())
      << "zero pages must ship >=5x fewer bytes than raw";
  criu::PageDeltaDecoder dec;
  auto got = dec.decode(wire);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(got->pages.size(), 64u);
  for (const auto& p : got->pages) {
    EXPECT_TRUE(std::all_of(p.data.begin(), p.data.end(),
                            [](std::uint8_t b) { return b == 0; }));
  }
}

TEST(PageDeltaTest, MostlyChangedPageShipsFull) {
  criu::PageDeltaEncoder enc;
  criu::PageDeltaDecoder dec;
  PageStore store;
  criu::PageSet r1;
  r1.pages.push_back(store.page(0x7000, 0x11));
  ASSERT_TRUE(dec.decode(enc.encode(r1)).is_ok());

  criu::PageSet r2;
  r2.pages.push_back(store.page(0x7000, 0xEE));  // every byte differs
  auto got = dec.decode(enc.encode(r2));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(enc.stats().pages_delta, 0u) << "whole-page churn is not delta-eligible";
  EXPECT_EQ(enc.stats().pages_full, 2u);
  ASSERT_EQ(got->pages.size(), 1u);
  EXPECT_TRUE(same(got->pages[0].data, r2.pages[0].data));
}

TEST(PageDeltaTest, OutOfOrderBatchIsRejected) {
  criu::PageDeltaEncoder enc;
  criu::PageDeltaDecoder dec;
  PageStore store;
  criu::PageSet r;
  r.pages.push_back(store.page(0x1000, 0x42));
  const Bytes b1 = enc.encode(r);
  const Bytes b2 = enc.encode(r);
  ASSERT_TRUE(dec.decode(b1).is_ok());
  // Replaying b1 (stale seq) must fail: kSame/kDelta correctness depends on
  // both shadow caches evolving in lockstep.
  EXPECT_EQ(dec.decode(b1).status().code(), common::Errc::failed_precondition);
  EXPECT_TRUE(dec.decode(b2).is_ok());
}

}  // namespace
}  // namespace migr::migrlib
