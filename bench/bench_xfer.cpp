// Transfer-mux microbench: paced stream scale-out and page-suppression
// ratios, written as the BENCH_xfer.json baseline that tools/ci.sh gates on.
//
//   build/bench/bench_xfer [--out BENCH_xfer.json]
//
// Two sections:
//  * streams: one 16 MiB payload through the TransferMux at 25 Gbps per
//    stream for N = 1/2/4/8; the mux must scale transfer time ~1/N (the
//    multifd claim). The CI gate requires >= 1.5x at N = 4.
//  * suppression: the PageDelta codec over a zero-page workload (>= 5x
//    fewer bytes attempted) and a sparse-dirty workload, with the
//    raw == shipped + suppressed balance pinned.
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>

#include "common/json.hpp"
#include "criu/pagedelta.hpp"
#include "migr/xfer.hpp"
#include "net/fabric.hpp"
#include "sim/event_loop.hpp"

using namespace migr;
using migr::migrlib::TransferMux;
using migr::migrlib::XferOptions;

namespace {

constexpr std::uint64_t kPayloadBytes = 16ull << 20;
constexpr double kStreamGbps = 25.0;

sim::DurationNs timed_transfer(std::uint32_t streams) {
  sim::EventLoop loop;
  net::Fabric fabric{loop, net::FabricConfig{}, 42};
  (void)fabric.attach_host(1);
  (void)fabric.attach_host(2);
  XferOptions xo;
  xo.streams = streams;
  xo.stream_gbps = kStreamGbps;
  TransferMux mux(loop, fabric, "bench.xfer", 1, 2, xo);
  bool done = false;
  sim::TimeNs done_at = 0;
  // Capture the delivery instant in the callback; run_for() advances now()
  // to the end of its polling window, which would quantize the timing.
  mux.open([&](common::Bytes&&) { done = true; done_at = loop.now(); },
           [](const common::Status&) {});
  common::Bytes payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); i += 4096) {
    payload[i] = static_cast<std::uint8_t>(i >> 12);
  }
  const sim::TimeNs t0 = loop.now();
  mux.send(std::move(payload));
  while (!done && loop.run_for(sim::msec(100)) > 0) {
  }
  if (!done) {
    std::fprintf(stderr, "transfer did not complete at %u streams\n", streams);
    std::exit(1);
  }
  return done_at - t0;
}

// Page sets only view their pages; the legs keep the contents here.
// Deque elements never move, so the views stay valid as pages are added.
struct PageStore {
  std::deque<common::Bytes> contents;

  criu::PageSet::Page page(proc::VirtAddr addr, std::uint8_t fill) {
    return {addr, contents.emplace_back(proc::kPageSize, fill)};
  }
};

struct SuppressionLeg {
  std::uint64_t raw = 0;
  std::uint64_t encoded = 0;
  bool balance_ok = false;

  double ratio() const {
    return encoded == 0 ? 0.0 : static_cast<double>(raw) / static_cast<double>(encoded);
  }
};

// 1024 zero pages: the kZero marker path.
SuppressionLeg zero_leg() {
  criu::PageDeltaEncoder enc;
  PageStore store;
  criu::PageSet set;
  for (int i = 0; i < 1024; i++) set.pages.push_back(store.page(0x1000ull * (i + 1), 0));
  const common::Bytes wire = enc.encode(set);
  SuppressionLeg leg;
  leg.raw = set.byte_size();
  leg.encoded = wire.size();
  const criu::PageDeltaStats& st = enc.stats();
  leg.balance_ok = st.bytes_raw == st.bytes_shipped + st.bytes_suppressed &&
                   st.pages_zero == 1024;
  return leg;
}

// Two rounds over the same 256 pages; the second round redirties 16 bytes
// per page — the kDelta XOR-run path against the previous round's content.
SuppressionLeg sparse_leg() {
  criu::PageDeltaEncoder enc;
  PageStore store;
  criu::PageSet r1;
  for (int i = 0; i < 256; i++) {
    r1.pages.push_back(store.page(0x1000ull * (i + 1), static_cast<std::uint8_t>(i + 1)));
  }
  (void)enc.encode(r1);
  // Dirty 16 bytes per page with the complement of the fill so every page
  // genuinely changes (a 0x5A fill overwritten with 0x5A would encode kSame).
  criu::PageSet r2;
  for (int i = 0; i < 256; i++) {
    const auto fill = static_cast<std::uint8_t>(i + 1);
    criu::PageSet::Page p = store.page(0x1000ull * (i + 1), fill);
    std::memset(store.contents.back().data() + 128, fill ^ 0xFF, 16);
    r2.pages.push_back(p);
  }
  criu::PageDeltaStats batch;
  const common::Bytes wire = enc.encode(r2, &batch);
  SuppressionLeg leg;
  leg.raw = batch.bytes_raw;
  leg.encoded = wire.size();
  leg.balance_ok = batch.bytes_raw == batch.bytes_shipped + batch.bytes_suppressed &&
                   batch.pages_delta == 256;
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_xfer.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out BENCH_xfer.json]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Transfer mux scale-out: %llu MiB payload, %.0f Gbps/stream\n",
              static_cast<unsigned long long>(kPayloadBytes >> 20), kStreamGbps);
  std::string json;
  common::Json j(json);
  j.obj().key("kind").val("bench_xfer").key("version").val(1);
  j.key("payload_bytes").val(kPayloadBytes).key("stream_gbps").fixed(kStreamGbps, 1);
  j.key("streams").arr();
  sim::DurationNs base_ns = 0;
  double speedup4 = 0;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const sim::DurationNs t = timed_transfer(n);
    if (n == 1) base_ns = t;
    const double speedup = static_cast<double>(base_ns) / static_cast<double>(t);
    if (n == 4) speedup4 = speedup;
    std::printf("  streams=%u transfer=%9.3f ms speedup=%.2fx\n", n, sim::to_msec(t),
                speedup);
    j.obj().key("n").val(n).key("transfer_ns").val(t).key("speedup").fixed(speedup, 3).end();
  }
  j.end();

  const SuppressionLeg zero = zero_leg();
  const SuppressionLeg sparse = sparse_leg();
  std::printf("Suppression: zero %.1fx (%llu -> %llu bytes, balance %s), "
              "sparse %.1fx (%llu -> %llu bytes, balance %s)\n",
              zero.ratio(), static_cast<unsigned long long>(zero.raw),
              static_cast<unsigned long long>(zero.encoded),
              zero.balance_ok ? "ok" : "BROKEN", sparse.ratio(),
              static_cast<unsigned long long>(sparse.raw),
              static_cast<unsigned long long>(sparse.encoded),
              sparse.balance_ok ? "ok" : "BROKEN");

  auto write_leg = [&j](const char* name, const SuppressionLeg& leg) {
    j.key(name).obj().key("raw_bytes").val(leg.raw).key("encoded_bytes").val(leg.encoded);
    j.key("ratio").fixed(leg.ratio(), 2).key("balance_ok").val(leg.balance_ok).end();
  };
  j.key("suppression").obj();
  write_leg("zero", zero);
  write_leg("sparse", sparse);
  j.end().end();
  if (auto st = common::write_file(out_path, json); !st.is_ok()) {
    std::fprintf(stderr, "cannot write %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("written to %s\n", out_path.c_str());

  int rc = 0;
  if (speedup4 < 1.5) {
    std::fprintf(stderr, "!! 4-stream speedup %.2fx below the 1.5x gate\n", speedup4);
    rc = 1;
  }
  if (zero.ratio() < 5.0) {
    std::fprintf(stderr, "!! zero-page suppression %.2fx below the 5x gate\n",
                 zero.ratio());
    rc = 1;
  }
  if (!zero.balance_ok || !sparse.balance_ok) {
    std::fprintf(stderr, "!! suppression accounting out of balance\n");
    rc = 1;
  }
  return rc;
}
