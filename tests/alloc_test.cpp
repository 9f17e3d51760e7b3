// Allocation pins, counted with a global operator new in this TU (like
// recorder_test and sli_test):
//  * a fleet MsgNode pair under the traffic generator sends and delivers
//    its messages without allocating once warmed up;
//  * a perftest RDMA WRITE stream (multi-packet bursts) allocates nothing
//    once warmed up, and neither does stream_rw's WRITE beside READ mix,
//    whose event heap stays small while hundreds of packets are in flight;
//  * brownout SLI taps wired to the disarmed hub add no event and no
//    allocation to a drain ("observability off = free", DESIGN.md §12);
//  * a pre-copy round (dump -> payload -> parse -> apply) of 512 dirty pages
//    into destination pages that already exist allocates a few blocks per
//    round, not per page.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <set>

#include "apps/perftest.hpp"
#include "cluster/drain.hpp"
#include "criu/checkpoint.hpp"
#include "obs/sli.hpp"
#include "sim/event_loop.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every allocation in the process funnels through these.
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

namespace migr {
namespace {

using common::Bytes;
using proc::kPageSize;

TEST(AllocPin, FleetMsgNodePairAllocatesNothingPerMessage) {
  cluster::ClusterConfig cfg;
  cfg.hosts = 2;
  cfg.seed = 7;
  cluster::ClusterModel model(cfg);
  cluster::TrafficProfile profile;  // drain8's messaging profile
  profile.send_interval = sim::usec(20);
  profile.msg_bytes = 2048;
  ASSERT_TRUE(model.add_guest(1, 100, profile).is_ok());
  ASSERT_TRUE(model.add_guest(2, 200, profile).is_ok());
  ASSERT_TRUE(model.connect_guests(100, 200).is_ok());
  std::uint64_t bytes_seen = 0;
  model.guest(200)->set_handler(
      [&](migrlib::GuestId, const Bytes& payload) { bytes_seen += payload.size(); });
  // Warm-up: event slots, payload pools and rings reach their steady size.
  model.run_for(sim::msec(5));

  auto delivered = [&] { return model.guest(100)->received() + model.guest(200)->received(); };
  const std::uint64_t msgs0 = delivered();
  const std::uint64_t bytes0 = bytes_seen;
  const std::uint64_t allocs0 = g_alloc_count;
  while (delivered() - msgs0 < 1000) model.run_for(sim::usec(100));
  const std::uint64_t allocs = g_alloc_count - allocs0;
  const std::uint64_t msgs = delivered() - msgs0;

  EXPECT_EQ(allocs, 0u) << "over " << msgs << " messages";
  EXPECT_EQ(model.guest(100)->errors() + model.guest(200)->errors(), 0u);
  // The handler saw whole 2 KiB payloads, not empty ones.
  EXPECT_GT(bytes_seen - bytes0, 0u);
  EXPECT_EQ((bytes_seen - bytes0) % profile.msg_bytes, 0u);
}

TEST(AllocPin, PerftestWriteStreamAllocatesNothingInSteadyState) {
  cluster::ClusterConfig cfg;
  cfg.hosts = 2;
  cluster::ClusterModel model(cfg);
  apps::PerftestConfig pcfg;
  pcfg.num_qps = 4;
  pcfg.msg_size = 256 * 1024;  // 64 MTU-sized packets per WRITE
  pcfg.queue_depth = 4;
  pcfg.opcode = rnic::WrOpcode::rdma_write;
  using Peer = apps::PerftestPeer;
  Peer tx(model.runtime(1), model.world().add_process("tx"), 100, Peer::Role::sender, pcfg);
  Peer rx(model.runtime(2), model.world().add_process("rx"), 200, Peer::Role::receiver, pcfg);
  for (std::uint32_t i = 0; i < pcfg.num_qps; ++i) {
    ASSERT_TRUE(Peer::connect_pair(tx, i, rx, i).is_ok());
  }
  tx.start();
  rx.start();
  // Warm-up: payload pool, slot table, delivery lanes and dirty sets reach
  // their high-water marks.
  model.run_for(sim::msec(5));

  const std::uint64_t wrs0 = tx.stats().completed_msgs;
  const std::uint64_t allocs0 = g_alloc_count;
  model.run_for(sim::msec(50));
  const std::uint64_t allocs = g_alloc_count - allocs0;
  const std::uint64_t wrs = tx.stats().completed_msgs - wrs0;
  tx.stop();
  rx.stop();

  // Inline SGE lists, pooled payloads and closures, try_emplace dirty
  // tracking and the GrowRing pump rotation each exist to hold this.
  EXPECT_EQ(allocs, 0u) << "over " << wrs << " WRs";
  EXPECT_GT(wrs, 1000u);
  EXPECT_EQ(tx.stats().errors, 0u);
}

/// stream_rw's mix on two hosts: 256 KiB WRITEs beside 256 KiB READs, two
/// QPs each. Every WRITE and READ-response packet takes a pool block of its
/// own, and landing by hand-over gives the displaced page back.
class WriteBesideReadStream {
 public:
  using Peer = apps::PerftestPeer;

  WriteBesideReadStream()
      : model_(two_hosts()),
        w_tx_(model_.runtime(1), world().add_process("w_tx"), 100, Peer::Role::sender,
              config(rnic::WrOpcode::rdma_write)),
        w_rx_(model_.runtime(2), world().add_process("w_rx"), 200, Peer::Role::receiver,
              config(rnic::WrOpcode::rdma_write)),
        r_tx_(model_.runtime(1), world().add_process("r_tx"), 101, Peer::Role::sender,
              config(rnic::WrOpcode::rdma_read)),
        r_rx_(model_.runtime(2), world().add_process("r_rx"), 201, Peer::Role::receiver,
              config(rnic::WrOpcode::rdma_read)) {
    for (std::uint32_t i = 0; i < kQps; ++i) {
      EXPECT_TRUE(Peer::connect_pair(w_tx_, i, w_rx_, i).is_ok());
      EXPECT_TRUE(Peer::connect_pair(r_tx_, i, r_rx_, i).is_ok());
    }
    for (Peer* p : peers()) p->start();
  }
  ~WriteBesideReadStream() {
    for (Peer* p : peers()) p->stop();
  }

  void run_for(sim::DurationNs d) { model_.run_for(d); }
  rnic::World& world() { return model_.world(); }
  std::uint64_t writes() const { return w_tx_.stats().completed_msgs; }
  std::uint64_t reads() const { return r_tx_.stats().completed_msgs; }
  /// Data packets serialized but not yet delivered (the fabric is clean).
  std::uint64_t packets_in_flight() {
    const net::PortStats& a = world().fabric().stats(1);
    const net::PortStats& b = world().fabric().stats(2);
    return a.data_packets_tx + b.data_packets_tx - a.data_packets_rx - b.data_packets_rx;
  }
  std::uint64_t faults() {
    std::uint64_t n = 0;
    for (Peer* p : peers()) {
      n += p->stats().errors + p->stats().order_violations + p->stats().content_corruptions;
    }
    return n;
  }

 private:
  static constexpr std::uint32_t kQps = 2;

  static cluster::ClusterConfig two_hosts() {
    cluster::ClusterConfig cfg;
    cfg.hosts = 2;
    return cfg;
  }
  static apps::PerftestConfig config(rnic::WrOpcode op) {
    apps::PerftestConfig c;
    c.num_qps = kQps;
    c.msg_size = 256 * 1024;
    c.queue_depth = 4;
    c.opcode = op;
    return c;
  }
  std::array<Peer*, 4> peers() { return {&w_rx_, &r_rx_, &w_tx_, &r_tx_}; }

  cluster::ClusterModel model_;
  Peer w_tx_;
  Peer w_rx_;
  Peer r_tx_;
  Peer r_rx_;
};

TEST(AllocPin, PerftestWriteBesideReadStreamAllocatesNothingInSteadyState) {
  WriteBesideReadStream stream;
  // Warm-up: the packets in flight reach their high-water mark, and with it
  // the pool's page class and the ports' delivery lanes (about 12 ms in,
  // once the READ responses' backlog peaks beside the WRITE bursts).
  stream.run_for(sim::msec(20));

  const std::uint64_t writes0 = stream.writes();
  const std::uint64_t reads0 = stream.reads();
  const std::uint64_t allocs0 = g_alloc_count;
  stream.run_for(sim::msec(50));
  const std::uint64_t allocs = g_alloc_count - allocs0;
  const std::uint64_t writes = stream.writes() - writes0;
  const std::uint64_t reads = stream.reads() - reads0;

  EXPECT_EQ(allocs, 0u) << "over " << writes << " WRITEs and " << reads << " READs";
  EXPECT_GT(writes, 500u);
  EXPECT_GT(reads, 500u);
  EXPECT_EQ(stream.faults(), 0u);
}

// Heap-bound pin: a READ response's packets and a WRITE burst's wait in
// their port's delivery lane, so the event heap holds the lane heads and
// the pollers, not one entry per packet in flight.
TEST(HeapBoundPin, WriteBesideReadStreamKeepsPacketsInFlightOutOfTheHeap) {
  WriteBesideReadStream stream;
  stream.run_for(sim::msec(5));
  std::size_t heap_peak = 0;
  std::uint64_t in_flight_peak = 0;
  for (int i = 0; i < 200; ++i) {
    stream.run_for(sim::usec(100));
    heap_peak = std::max(heap_peak, stream.world().loop().heap_entries());
    in_flight_peak = std::max(in_flight_peak, stream.packets_in_flight());
  }
  EXPECT_LE(heap_peak, 32u);
  EXPECT_GE(in_flight_peak, 200u);
  EXPECT_GT(stream.reads(), 100u);
  EXPECT_EQ(stream.faults(), 0u);
}

struct DrainCost {
  bool ok = false;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
};

/// Drain host 1 of a 4-host fleet: two busy guests there, each messaging a
/// partner on its own host. Counts what the drain itself dispatches and
/// allocates.
DrainCost small_drain(bool sli_taps) {
  cluster::ClusterConfig cfg;
  cfg.hosts = 4;
  cluster::ClusterModel model(cfg);
  if (sli_taps) model.enable_sli(obs::SliHub::global());
  cluster::TrafficProfile profile;  // drain8's
  profile.send_interval = sim::usec(20);
  profile.msg_bytes = 2048;
  profile.extra_mem_bytes = 2 << 20;
  profile.dirty_interval = sim::msec(1);
  for (cluster::GuestId g = 0; g < 2; ++g) {
    if (!model.add_guest(1, 100 + g, profile).is_ok() ||
        !model.add_guest(2 + g, 200 + g, profile).is_ok() ||
        !model.connect_guests(100 + g, 200 + g).is_ok()) {
      return {};
    }
  }
  model.run_for(sim::msec(5));

  cluster::MigrationScheduler sched(model);
  cluster::DrainWorkflow drain(model, sched);
  const std::uint64_t events0 = model.loop().events_dispatched();
  const std::uint64_t allocs0 = g_alloc_count;
  const bool ok = drain.run(1).ok;
  return {ok, model.loop().events_dispatched() - events0, g_alloc_count - allocs0};
}

TEST(AllocPin, DisarmedSliTapsAddNoEventOrAllocationToADrain) {
  ASSERT_FALSE(obs::SliHub::global().enabled());
  // The first drain interns the process-wide metric names; both measured
  // drains then run in a warm process, so their difference is the taps'.
  ASSERT_TRUE(small_drain(/*sli_taps=*/false).ok);
  const DrainCost plain = small_drain(/*sli_taps=*/false);
  const DrainCost tapped = small_drain(/*sli_taps=*/true);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(tapped.ok);
  EXPECT_EQ(tapped.events, plain.events);
  EXPECT_EQ(tapped.allocs, plain.allocs);
}

TEST(AllocPin, PrecopyRoundOf512DirtyPagesAllocatesAFewBlocks) {
  constexpr std::uint64_t kPages = 512;
  sim::EventLoop loop;
  proc::SimProcess src(1, "src", loop);
  proc::SimProcess dst(2, "dst", loop);
  const auto base = src.mem().mmap(kPages * kPageSize, "guest").value();
  auto fill = [&](std::uint8_t v) {
    const Bytes page(kPageSize, v);
    for (std::uint64_t i = 0; i < kPages; ++i) {
      ASSERT_TRUE(src.mem().write(base + i * kPageSize, page).is_ok());
    }
  };
  criu::Checkpointer ck(src);
  criu::Restorer restorer(dst);
  const std::set<proc::VirtAddr> pinned{base};  // restore in place

  // One round as the migration controller runs it: the dump written once
  // into an exactly-sized payload, its sections parsed as views, applied.
  auto round = [&](bool first) {
    auto dump = ck.pre_dump();
    common::ByteWriter w(4 + dump.image.serialized_size() + 4 + dump.pages.serialized_size());
    w.section(dump.image);
    w.section(dump.pages);
    const Bytes payload = std::move(w).take();
    ASSERT_EQ(payload.capacity(), payload.size());

    common::ByteReader r{payload};
    auto mem_bytes = r.view();
    auto page_bytes = r.view();
    ASSERT_TRUE(mem_bytes.is_ok() && page_bytes.is_ok());
    auto image = criu::MemoryImage::parse(*mem_bytes);
    auto pages = criu::PageSet::parse(*page_bytes);
    ASSERT_TRUE(image.is_ok() && pages.is_ok());
    ASSERT_EQ(pages->pages.size(), kPages);
    auto placed = first ? restorer.begin(*image, pinned) : restorer.update(*image, pinned);
    ASSERT_TRUE(placed.is_ok());
    ASSERT_TRUE(restorer.apply_pages(*pages).is_ok());
  };

  fill(0x33);
  round(/*first=*/true);  // creates every destination page
  fill(0x44);             // dirties all 512 again

  const std::uint64_t allocs0 = g_alloc_count;
  round(/*first=*/false);
  const std::uint64_t allocs = g_alloc_count - allocs0;

  // Per round, not per page: the dump's page block and vectors, the
  // payload, the parsed VMA table and page list.
  EXPECT_LE(allocs, 12u);
  Bytes got(kPages * kPageSize);
  ASSERT_TRUE(dst.mem().read(base, got).is_ok());
  EXPECT_TRUE(std::all_of(got.begin(), got.end(), [](std::uint8_t b) { return b == 0x44; }));
}

}  // namespace
}  // namespace migr
