#include "probes.hpp"

#include <chrono>
#include <cstdlib>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "criu/checkpoint.hpp"
#include "extract.hpp"
#include "rnic/wire.hpp"

namespace migrbench {
namespace {

using namespace migr;
using Clock = std::chrono::steady_clock;

constexpr int kProbeReps = 7;
constexpr std::uint64_t kGuestBytes = 2ull << 20;  // the drain8 guests' dirtied MR
constexpr std::uint64_t kPages = kGuestBytes / proc::kPageSize;

double elapsed_ns(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "probe set-up failed: %s\n", what);
    std::exit(1);
  }
}

/// Median over kProbeReps of `one()`, which returns ns per operation.
double median_of(const std::function<double()>& one) {
  std::vector<double> v;
  for (int r = 0; r < kProbeReps; ++r) v.push_back(one());
  return median(v);
}

// ---- sim: bare event-loop dispatch -----------------------------------------

struct Chain {
  sim::EventLoop* loop = nullptr;
  std::uint64_t left = 0;
  void fire() {
    if (left-- > 1) loop->schedule_in(100, [this] { fire(); });
  }
};

double dispatch_ns_per_event() {
  sim::EventLoop loop;
  std::vector<Chain> chains(64);
  for (auto& c : chains) {
    c.loop = &loop;
    c.left = 4000;
    loop.schedule_in(100, [&c] { c.fire(); });
  }
  const auto t0 = Clock::now();
  const std::uint64_t n = loop.run();
  return elapsed_ns(t0) / static_cast<double>(n);
}

// ---- rnic: wire-packet parse ------------------------------------------------

double parse_ns_per_packet() {
  rnic::WirePacket wp;
  wp.op = rnic::PktOp::write;
  wp.dst_qpn = 0x42;
  wp.src_qpn = 0x17;
  wp.psn = 123456;
  wp.first = true;
  wp.last = true;
  wp.remote_addr = 0x10000;
  wp.rkey = 0xabc;
  wp.msg_len = 4096;
  wp.payload = common::PayloadRef::alloc(4096);
  net::Packet proto(1, 2, wp.payload);
  wp.serialize_header(proto.header);
  std::vector<net::Packet> batch(20'000, proto);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (auto& p : batch) {
    auto r = rnic::WirePacket::parse(std::move(p));
    require(r.is_ok(), "WirePacket::parse");
    sink += r.value().psn;
  }
  const double ns = elapsed_ns(t0);
  require(sink == 123456ull * batch.size(), "parsed PSNs");
  return ns / static_cast<double>(batch.size());
}

// ---- proc: address-space writes --------------------------------------------

/// ns per AddressSpace::write of `len` bytes at the start of every page of a
/// 2 MiB mapping (len 1 is the dirtier's pattern, 4096 a DMA page write).
double write_ns(std::uint32_t len) {
  proc::AddressSpace mem;
  const auto base = mem.mmap(kGuestBytes, "probe").value();
  const std::vector<std::uint8_t> buf(len, 0x5a);
  auto pass = [&] {
    for (std::uint64_t off = 0; off < kGuestBytes; off += proc::kPageSize) {
      require(mem.write(base + off, buf).is_ok(), "AddressSpace::write");
    }
  };
  pass();  // fault every page in first: the steady state of a running guest
  constexpr int kPasses = 20;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPasses; ++i) pass();
  return elapsed_ns(t0) / static_cast<double>(kPasses * kPages);
}

// ---- criu: full pre-dump of a 2 MiB guest ----------------------------------

double dump_ns_per_page() {
  sim::EventLoop loop;
  proc::SimProcess p(1, "probe", loop);
  const auto base = p.mem().mmap(kGuestBytes, "guest").value();
  const std::vector<std::uint8_t> page(proc::kPageSize, 0x33);
  for (std::uint64_t off = 0; off < kGuestBytes; off += proc::kPageSize) {
    require(p.mem().write(base + off, page).is_ok(), "populate guest");
  }
  criu::Checkpointer ck(p);  // a fresh checkpointer's first pre-dump is full
  const auto t0 = Clock::now();
  const auto dump = ck.pre_dump();
  const double ns = elapsed_ns(t0);
  require(dump.pages.pages.size() == kPages, "full pre-dump page count");
  return ns / static_cast<double>(kPages);
}

// ---- migr: Table 4, guest library vs raw verbs -----------------------------

constexpr std::uint32_t kMsg = 64;  // Table 4's message size
constexpr int kBatch = 512;
constexpr int kBatchesPerSample = 8;
constexpr int kVirtReps = 21;

/// One raw-verbs and one guest-library RC QP pair between two hosts.
class VirtHarness {
 public:
  VirtHarness() : model_(config()) {
    auto& pga = model_.world().add_process("ga");
    auto& pgb = model_.world().add_process("gb");
    ga_ = model_.runtime(1).create_guest(pga, 100).value();
    gb_ = model_.runtime(2).create_guest(pgb, 200).value();
    gpd_a_ = ga_->alloc_pd().value();
    gcq_a_ = ga_->create_cq(8192).value();
    gpd_b_ = gb_->alloc_pd().value();
    gcq_b_ = gb_->create_cq(8192).value();
    migrlib::GuestQpAttr attr;
    attr.vpd = gpd_a_;
    attr.vsend_cq = gcq_a_;
    attr.vrecv_cq = gcq_a_;
    attr.caps = {8192, 8192};
    gqa_ = ga_->create_qp(attr).value();
    attr.vpd = gpd_b_;
    attr.vsend_cq = gcq_b_;
    attr.vrecv_cq = gcq_b_;
    gqb_ = gb_->create_qp(attr).value();
    require(ga_->connect_qp(gqa_, 200, gqb_, 11, 22).is_ok(), "guest connect a");
    require(gb_->connect_qp(gqb_, 100, gqa_, 22, 11).is_ok(), "guest connect b");
    gbuf_a_ = pga.mem().mmap(1 << 16, "ba").value();
    gmr_a_ = ga_->reg_mr(gpd_a_, gbuf_a_, 1 << 16, 0xF).value();
    gbuf_b_ = pgb.mem().mmap(1 << 16, "bb").value();
    gmr_b_ = gb_->reg_mr(gpd_b_, gbuf_b_, 1 << 16, 0xF).value();

    auto& pra = model_.world().add_process("ra");
    auto& prb = model_.world().add_process("rb");
    ra_ = model_.device(1).open(pra).value();
    rb_ = model_.device(2).open(prb).value();
    rpd_a_ = ra_->alloc_pd().value();
    rcq_a_ = ra_->create_cq(8192).value();
    rpd_b_ = rb_->alloc_pd().value();
    rcq_b_ = rb_->create_cq(8192).value();
    rqa_ = ra_->create_qp({rnic::QpType::rc, rpd_a_, rcq_a_, rcq_a_, 0, {8192, 8192}}).value();
    rqb_ = rb_->create_qp({rnic::QpType::rc, rpd_b_, rcq_b_, rcq_b_, 0, {8192, 8192}}).value();
    require(rnic::rc_connect(*ra_, rqa_, *rb_, rqb_).is_ok(), "raw connect");
    rbuf_a_ = pra.mem().mmap(1 << 16, "ra").value();
    rmr_a_ = ra_->reg_mr(rpd_a_, rbuf_a_, 1 << 16, 0xF).value();
    rbuf_b_ = prb.mem().mmap(1 << 16, "rb").value();
    rmr_b_ = rb_->reg_mr(rpd_b_, rbuf_b_, 1 << 16, 0xF).value();
  }

  /// ns per operation of `op` over kBatchesPerSample batches, either through
  /// the guest library (virt) or the raw verbs context.
  double sample(const std::string& op, bool virt) {
    double ns = 0;
    for (int b = 0; b < kBatchesPerSample; ++b) ns += batch(op, virt);
    return ns / static_cast<double>(kBatchesPerSample * kBatch);
  }

 private:
  static cluster::ClusterConfig config() {
    cluster::ClusterConfig c;
    c.hosts = 2;
    return c;
  }

  rnic::SendWr one_sided(rnic::WrOpcode opcode, bool virt) const {
    rnic::SendWr wr;
    wr.opcode = opcode;
    wr.remote_addr = virt ? gbuf_b_ : rbuf_b_;
    wr.rkey = virt ? gmr_b_.vrkey : rmr_b_.rkey;
    wr.sge = {{virt ? gbuf_a_ : rbuf_a_, kMsg, virt ? gmr_a_.vlkey : rmr_a_.lkey}};
    return wr;
  }
  rnic::SendWr send_wr(bool virt) const {
    rnic::SendWr wr;
    wr.opcode = rnic::WrOpcode::send;
    wr.sge = {{virt ? gbuf_a_ : rbuf_a_, kMsg, virt ? gmr_a_.vlkey : rmr_a_.lkey}};
    return wr;
  }
  rnic::RecvWr recv_wr(bool virt) const {
    rnic::RecvWr wr;
    wr.sge = {{virt ? gbuf_b_ : rbuf_b_, kMsg, virt ? gmr_b_.vlkey : rmr_b_.lkey}};
    return wr;
  }
  void post_send(rnic::SendWr wr, bool virt) {
    const auto st =
        virt ? ga_->post_send(gqa_, std::move(wr)) : ra_->post_send(rqa_, std::move(wr));
    require(st.is_ok(), "post_send");
  }
  void post_recv(bool virt) {
    const auto st =
        virt ? gb_->post_recv(gqb_, recv_wr(true)) : rb_->post_recv(rqb_, recv_wr(false));
    require(st.is_ok(), "post_recv");
  }
  int poll_one(bool virt) {
    rnic::Cqe c;
    return virt ? ga_->poll_cq(gcq_a_, {&c, 1}) : ra_->poll_cq(rcq_a_, {&c, 1});
  }

  /// Run the fabric until idle and empty every CQ (untimed).
  void quiesce() {
    model_.run_for(sim::msec(5));
    rnic::Cqe c;
    while (ga_->poll_cq(gcq_a_, {&c, 1}) > 0) {
    }
    while (gb_->poll_cq(gcq_b_, {&c, 1}) > 0) {
    }
    while (ra_->poll_cq(rcq_a_, {&c, 1}) > 0) {
    }
    while (rb_->poll_cq(rcq_b_, {&c, 1}) > 0) {
    }
  }

  /// Wall ns of one timed batch of kBatch operations.
  double batch(const std::string& op, bool virt) {
    double ns = 0;
    if (op == "write" || op == "read") {
      const auto opcode = op == "write" ? rnic::WrOpcode::rdma_write : rnic::WrOpcode::rdma_read;
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) post_send(one_sided(opcode, virt), virt);
      ns = elapsed_ns(t0);
    } else if (op == "send") {
      for (int i = 0; i < kBatch; ++i) post_recv(virt);
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) post_send(send_wr(virt), virt);
      ns = elapsed_ns(t0);
    } else if (op == "recv") {
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) post_recv(virt);
      ns = elapsed_ns(t0);
      for (int i = 0; i < kBatch; ++i) post_send(send_wr(virt), virt);
    } else {  // poll: completions of a batch of writes, drained one at a time
      for (int i = 0; i < kBatch; ++i) post_send(one_sided(rnic::WrOpcode::rdma_write, virt), virt);
      model_.run_for(sim::msec(5));
      int drained = 0;
      const auto t0 = Clock::now();
      while (poll_one(virt) > 0) drained++;
      ns = elapsed_ns(t0);
      require(drained == kBatch, "poll drained every completion");
    }
    quiesce();
    return ns;
  }

  cluster::ClusterModel model_;
  migrlib::GuestContext* ga_ = nullptr;
  migrlib::GuestContext* gb_ = nullptr;
  migrlib::VHandle gpd_a_ = 0, gcq_a_ = 0, gpd_b_ = 0, gcq_b_ = 0;
  migrlib::VQpn gqa_ = 0, gqb_ = 0;
  std::uint64_t gbuf_a_ = 0, gbuf_b_ = 0;
  migrlib::VMr gmr_a_, gmr_b_;
  rnic::Context* ra_ = nullptr;
  rnic::Context* rb_ = nullptr;
  rnic::Handle rpd_a_ = 0, rcq_a_ = 0, rpd_b_ = 0, rcq_b_ = 0;
  rnic::Qpn rqa_ = 0, rqb_ = 0;
  std::uint64_t rbuf_a_ = 0, rbuf_b_ = 0;
  rnic::Mr rmr_a_, rmr_b_;
};

/// Overhead in percent of the guest library over raw verbs, per operation,
/// as median and quartiles over kVirtReps paired samples. The order of the
/// two legs alternates between repetitions so drift hits both equally.
void virt_overhead(std::map<std::string, double>& out) {
  VirtHarness h;
  for (const char* op : {"send", "recv", "write", "read", "poll"}) {
    (void)h.sample(op, false);  // warm both paths' pools before sampling
    (void)h.sample(op, true);
    std::vector<double> pct;
    for (int r = 0; r < kVirtReps; ++r) {
      const bool virt_first = (r % 2) == 1;
      const double first = h.sample(op, virt_first);
      const double second = h.sample(op, !virt_first);
      const double virt = virt_first ? first : second;
      const double raw = virt_first ? second : first;
      pct.push_back((virt / raw - 1.0) * 100.0);
    }
    const auto q = quartiles(pct);
    const std::string key = std::string("migr.virt_overhead.") + op;
    out[key] = q.median;
    out[key + ".q1"] = q.q1;
    out[key + ".q3"] = q.q3;
  }
}

}  // namespace

void run_probes(std::map<std::string, double>& out, SpanLog& spans) {
  const SpanLog::Scope all(&spans, "probes");
  auto probe = [&](const char* name, const std::function<void()>& body) {
    const SpanLog::Scope s(&spans, name, all.id());
    body();
  };
  probe("probe.sim.dispatch", [&] { out["sim.dispatch_ns"] = median_of(dispatch_ns_per_event); });
  probe("probe.rnic.parse", [&] { out["rnic.parse_ns"] = median_of(parse_ns_per_packet); });
  probe("probe.proc.write", [&] {
    out["proc.write_ns.byte"] = median_of([] { return write_ns(1); });
    out["proc.write_ns.page"] = median_of([] { return write_ns(proc::kPageSize); });
  });
  probe("probe.criu.pre_dump", [&] { out["criu.dump_ns_per_page"] = median_of(dump_ns_per_page); });
  probe("probe.migr.virt_overhead", [&] { virt_overhead(out); });
}

}  // namespace migrbench
