// Control path: context/resource lifecycle. The transport engine (packet
// processing, transmit scheduling) lives in transport.cpp.
#include "rnic/device.hpp"

#include <algorithm>
#include <iterator>

#include "common/log.hpp"

namespace migr::rnic {

using common::Errc;
using common::Result;
using common::Status;

namespace {
constexpr std::uint32_t kMaxSge = 16;

// Every port counter, named as the registry exports it.
struct PortField {
  const char* name;
  std::uint64_t PortCounters::*member;
};
constexpr PortField kPortFields[] = {
    {"tx_bytes", &PortCounters::tx_bytes},
    {"rx_bytes", &PortCounters::rx_bytes},
    {"tx_packets", &PortCounters::tx_packets},
    {"rx_packets", &PortCounters::rx_packets},
    {"retransmits", &PortCounters::retransmits},
    {"rx_in_order", &PortCounters::rx_in_order},
    {"rx_duplicate", &PortCounters::rx_duplicate},
    {"out_of_sequence", &PortCounters::out_of_sequence},
    {"rx_rnr_drop", &PortCounters::rx_rnr_drop},
    {"tx_retransmit_packets", &PortCounters::tx_retransmit_packets},
    {"rnr_waits", &PortCounters::rnr_waits},
};
}  // namespace

// ---------------------------------------------------------------------------
// PortCounters
// ---------------------------------------------------------------------------

PortCounters& PortCounters::operator+=(const PortCounters& o) {
  for (const PortField& f : kPortFields) this->*f.member += o.*f.member;
  return *this;
}

PortCounters PortCounters::operator-(const PortCounters& o) const {
  PortCounters d = *this;
  for (const PortField& f : kPortFields) d.*f.member -= o.*f.member;
  return d;
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

Device::Device(sim::EventLoop& loop, net::Fabric& fabric, net::HostId host,
               DeviceConfig config, std::uint64_t seed)
    : loop_(loop),
      fabric_(fabric),
      host_(host),
      config_(config),
      rng_(seed ^ (static_cast<std::uint64_t>(host) << 32)),
      dm_free_(config.device_memory_bytes) {
  if (!fabric_.attached(host)) {
    auto st = fabric_.attach_host(host);
    (void)st;  // already attached is fine: several sim objects share a host
  }
  // QPN space starts at a device-specific pseudo-random base so that two
  // devices essentially never hand out the same numbers — the property that
  // forces MigrRDMA to translate QPNs after migration.
  next_qpn_ = static_cast<Qpn>(rng_.range(0x0010'00, 0x7FFF'FF)) & kQpnMask;
  qpn_base_ = next_qpn_;
  key_salt_ = static_cast<std::uint32_t>(rng_.next());
  fabric_.set_data_handler(host_, [this](net::Packet&& p) { handle_packet(std::move(p)); });
  egress_clock_ = fabric_.egress_clock(host_);

  auto& reg = obs::Registry::global();
  const obs::Labels labels{{"host", std::to_string(host_)}};
  metrics_.wqe_posted = &reg.counter("rnic.wqe_posted", labels);
  metrics_.recv_posted = &reg.counter("rnic.recv_posted", labels);
  metrics_.cqe_delivered = &reg.counter("rnic.cqe_delivered", labels);
  metrics_.retransmits = &reg.counter("rnic.retransmits", labels);
  metrics_.nak_tx = &reg.counter("rnic.nak_tx", labels);
  metrics_.out_of_sequence = &reg.counter("rnic.out_of_sequence", labels);
  metrics_.qp_to_init = &reg.counter("rnic.qp_transitions", {{"host", std::to_string(host_)}, {"to", "init"}});
  metrics_.qp_to_rtr = &reg.counter("rnic.qp_transitions", {{"host", std::to_string(host_)}, {"to", "rtr"}});
  metrics_.qp_to_rts = &reg.counter("rnic.qp_transitions", {{"host", std::to_string(host_)}, {"to", "rts"}});
  metrics_.qp_to_err = &reg.counter("rnic.qp_transitions", {{"host", std::to_string(host_)}, {"to", "err"}});
  metrics_.qp_to_reset = &reg.counter("rnic.qp_transitions", {{"host", std::to_string(host_)}, {"to", "reset"}});
  // Ethtool-style port counters surface through the same registry snapshot.
  port_source_id_ = reg.register_source("rnic.port", labels, [this] {
    std::vector<std::pair<std::string, double>> out;
    out.reserve(std::size(kPortFields));
    for (const PortField& f : kPortFields) {
      out.emplace_back(f.name, static_cast<double>(counters_.*f.member));
    }
    return out;
  });
}

Device::~Device() {
  if (port_source_id_ != 0) obs::Registry::global().unregister_source(port_source_id_);
}

void Device::note_qp_transition(Qpn qpn, QpState to) {
  obs::Counter* c = nullptr;
  const char* name = nullptr;
  switch (to) {
    case QpState::init: c = metrics_.qp_to_init; name = "qp.init"; break;
    case QpState::rtr: c = metrics_.qp_to_rtr; name = "qp.rtr"; break;
    case QpState::rts: c = metrics_.qp_to_rts; name = "qp.rts"; break;
    case QpState::err: c = metrics_.qp_to_err; name = "qp.err"; break;
    case QpState::reset: c = metrics_.qp_to_reset; name = "qp.reset"; break;
    default: return;
  }
  c->inc();
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.instant(loop_.now(), name, "rnic",
                   "\"qpn\":" + std::to_string(qpn) + ",\"host\":" + std::to_string(host_));
  }
}

Result<Context*> Device::open(proc::SimProcess& proc) {
  auto ctx = std::make_unique<Context>(*this, proc);
  ctx->charge(costs().open_device);
  contexts_.push_back(std::move(ctx));
  return contexts_.back().get();
}

void Device::close(Context* ctx) {
  // Destroy all QP routes / rkeys owned by the context, then drop it.
  for (auto& [qpn, qp] : ctx->qps_) {
    (void)qp;
    qp_routes_.erase(qpn);
  }
  std::erase_if(rkeys_, [ctx](const auto& kv) { return kv.second.ctx == ctx; });
  std::erase_if(contexts_, [ctx](const auto& up) { return up.get() == ctx; });
}

Qpn Device::alloc_qpn() {
  for (;;) {
    const Qpn q = next_qpn_;
    next_qpn_ = (next_qpn_ + 1) & kQpnMask;
    if (next_qpn_ == 0) next_qpn_ = 1;
    if (q != 0 && !qp_routes_.contains(q)) return q;
  }
}

std::uint32_t Device::alloc_key() {
  // Non-dense, NIC-flavoured key layout: index in the high bits, a salted
  // byte in the low bits (mlx5 keys look like this). Guarantees keys from
  // different devices differ and are not small dense integers — which is
  // precisely why MigrRDMA introduces its own dense *virtual* keys (§3.3).
  const std::uint32_t index = next_key_index_++;
  return (index << 8) | ((key_salt_ ^ (index * 0x9E37u)) & 0xFF);
}

void Device::add_ctrl_pressure(sim::DurationNs duration) {
  ctrl_pressure_until_ = std::max(ctrl_pressure_until_, loop_.now()) + duration;
}

const Device::RkeyTarget* Device::find_rkey(Rkey rkey) const {
  auto it = rkeys_.find(rkey);
  return it == rkeys_.end() ? nullptr : &it->second;
}

std::vector<Qpn> Device::audit_stuck_qps(sim::DurationNs stale_after) const {
  std::vector<Qpn> stuck;
  for (const auto& [qpn, qp] : qp_routes_) {
    if (qp->state != QpState::rts || qp->type != QpType::rc) continue;
    if (qp->sq.empty() || !qp->sq.front().psn_assigned) continue;
    if (loop_.now() - qp->last_progress >= stale_after) stuck.push_back(qpn);
  }
  // A hit is an anomaly the property tests treat as fatal: capture the wire
  // history around it while it is still in the ring.
  auto& rec = obs::FlightRecorder::global();
  if (!stuck.empty() && rec.enabled()) {
    std::string detail = "\"host\":" + std::to_string(host_) + ",\"qpns\":[";
    for (std::size_t i = 0; i < stuck.size(); ++i) {
      if (i != 0) detail += ',';
      detail += std::to_string(stuck[i]);
    }
    detail += ']';
    rec.trigger_dump(loop_.now(), "stuck_qps", detail);
  }
  return stuck;
}

// ---------------------------------------------------------------------------
// Context: control path
// ---------------------------------------------------------------------------

Context::Context(Device& dev, proc::SimProcess& proc) : dev_(dev), proc_(proc) {}

Context::~Context() = default;

void Context::charge(sim::DurationNs cost) {
  ctrl_cost_ += cost;
  // Control-path commands occupy the NIC's command interface and interfere
  // with data-path processing (Kong et al., observed as brownout in Fig. 5).
  dev_.add_ctrl_pressure(cost);
}

Result<Handle> Context::alloc_pd() {
  charge(dev_.costs().alloc_pd);
  const Handle h = next_handle_++;
  pds_.emplace(h, Pd{h});
  return h;
}

Status Context::dealloc_pd(Handle pd) {
  if (pds_.erase(pd) == 0) return common::err(Errc::not_found, "no such PD");
  return Status::ok();
}

Result<Mr> Context::reg_mr(Handle pd, proc::VirtAddr addr, std::uint64_t length,
                           std::uint32_t access) {
  if (!pds_.contains(pd)) return common::err(Errc::not_found, "no such PD");
  if (length == 0) return common::err(Errc::invalid_argument, "zero-length MR");
  // The NIC pins the pages at registration time: the whole range must be
  // mapped in the owning process — the exact constraint that breaks MR
  // restoration while CRIU holds the memory at a temporary address (§3.2).
  if (!proc_.mem().mapped(addr, length)) {
    return common::err(Errc::permission_denied, "reg_mr: range not mapped in process");
  }
  if ((access & (kAccessRemoteWrite | kAccessRemoteAtomic)) != 0 &&
      (access & kAccessLocalWrite) == 0) {
    return common::err(Errc::invalid_argument,
                       "remote write/atomic requires local write (spec)");
  }
  charge(dev_.costs().reg_mr(length));
  Mr mr;
  mr.handle = next_handle_++;
  mr.pd = pd;
  mr.addr = addr;
  mr.length = length;
  mr.access = access;
  mr.lkey = dev_.alloc_key();
  mr.rkey = dev_.alloc_key();
  mrs_.emplace(mr.lkey, mr);
  dev_.rkeys_[mr.rkey] = Device::RkeyTarget{this, addr, length, access, pd};
  return mr;
}

Status Context::dereg_mr(Lkey lkey) {
  auto it = mrs_.find(lkey);
  if (it == mrs_.end()) return common::err(Errc::not_found, "no such MR");
  charge(dev_.costs().dereg_mr);
  dev_.rkeys_.erase(it->second.rkey);
  mrs_.erase(it);
  return Status::ok();
}

Result<Handle> Context::create_comp_channel() {
  const Handle h = next_handle_++;
  channels_.emplace(h, CompChannel{h});
  return h;
}

Status Context::destroy_comp_channel(Handle ch) {
  if (channels_.erase(ch) == 0) return common::err(Errc::not_found, "no such channel");
  return Status::ok();
}

Result<Handle> Context::create_cq(std::uint32_t capacity, Handle channel) {
  if (capacity == 0 || capacity > dev_.config().max_cqe) {
    return common::err(Errc::invalid_argument, "bad CQ capacity");
  }
  if (channel != 0 && !channels_.contains(channel)) {
    return common::err(Errc::not_found, "no such completion channel");
  }
  charge(dev_.costs().create_cq);
  const Handle h = next_handle_++;
  auto cq = std::make_unique<Cq>(capacity);
  cq->handle = h;
  cq->channel = channel;
  cqs_.emplace(h, std::move(cq));
  return h;
}

Status Context::destroy_cq(Handle cq) {
  auto it = cqs_.find(cq);
  if (it == cqs_.end()) return common::err(Errc::not_found, "no such CQ");
  for (auto& [qpn, qp] : qps_) {
    (void)qpn;
    if (qp->send_cq == cq || qp->recv_cq == cq) {
      return common::err(Errc::failed_precondition, "CQ still used by a QP");
    }
  }
  cqs_.erase(it);
  return Status::ok();
}

Result<Handle> Context::create_srq(Handle pd, std::uint32_t capacity) {
  if (!pds_.contains(pd)) return common::err(Errc::not_found, "no such PD");
  if (capacity == 0) return common::err(Errc::invalid_argument, "bad SRQ capacity");
  charge(dev_.costs().create_srq);
  const Handle h = next_handle_++;
  auto srq = std::make_unique<Srq>(capacity);
  srq->handle = h;
  srq->pd = pd;
  srqs_.emplace(h, std::move(srq));
  return h;
}

Status Context::destroy_srq(Handle srq) {
  auto it = srqs_.find(srq);
  if (it == srqs_.end()) return common::err(Errc::not_found, "no such SRQ");
  for (auto& [qpn, qp] : qps_) {
    (void)qpn;
    if (qp->srq == srq) {
      return common::err(Errc::failed_precondition, "SRQ still used by a QP");
    }
  }
  srqs_.erase(it);
  return Status::ok();
}

Result<Qpn> Context::create_qp(const QpInitAttr& attr) {
  if (!pds_.contains(attr.pd)) return common::err(Errc::not_found, "no such PD");
  if (!cqs_.contains(attr.send_cq) || !cqs_.contains(attr.recv_cq)) {
    return common::err(Errc::not_found, "no such CQ");
  }
  if (attr.srq != 0 && !srqs_.contains(attr.srq)) {
    return common::err(Errc::not_found, "no such SRQ");
  }
  if (dev_.qp_count() >= dev_.config().max_qp) {
    return common::err(Errc::resource_exhausted, "device out of QPs");
  }
  if (attr.caps.max_send_wr == 0 || attr.caps.max_send_wr > dev_.config().max_qp_wr ||
      attr.caps.max_recv_wr > dev_.config().max_qp_wr) {
    return common::err(Errc::invalid_argument, "bad QP caps");
  }
  charge(dev_.costs().create_qp);
  auto qp = std::make_unique<Qp>(attr.caps);
  qp->qpn = dev_.alloc_qpn();
  qp->type = attr.type;
  qp->state = QpState::reset;
  qp->pd = attr.pd;
  qp->send_cq = attr.send_cq;
  qp->recv_cq = attr.recv_cq;
  qp->srq = attr.srq;
  qp->ctx = this;
  const Qpn qpn = qp->qpn;
  dev_.qp_routes_[qpn] = qp.get();
  qps_.emplace(qpn, std::move(qp));
  return qpn;
}

Status Context::destroy_qp(Qpn qpn) {
  auto it = qps_.find(qpn);
  if (it == qps_.end()) return common::err(Errc::not_found, "no such QP");
  charge(dev_.costs().destroy_qp);
  dev_.qp_routes_.erase(qpn);
  qps_.erase(it);
  return Status::ok();
}

Status Context::modify_qp_init(Qpn qpn) {
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  if (qp->state != QpState::reset) {
    return common::err(Errc::failed_precondition, "RESET->INIT requires RESET state");
  }
  charge(dev_.costs().modify_qp);
  qp->state = QpState::init;
  dev_.note_qp_transition(qpn, QpState::init);
  return Status::ok();
}

Status Context::modify_qp_rtr(Qpn qpn, net::HostId remote_host, Qpn remote_qpn,
                              Psn expected_psn) {
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  if (qp->state != QpState::init) {
    return common::err(Errc::failed_precondition, "INIT->RTR requires INIT state");
  }
  charge(dev_.costs().modify_qp);
  if (qp->type == QpType::rc) {
    qp->remote_host = remote_host;
    qp->remote_qpn = remote_qpn;
    qp->expected_psn = expected_psn;
    // Resolve the fabric fast-path handle once per connection; every packet
    // of this QP's lifetime sends through it without hash lookups.
    qp->route = dev_.fabric().route(dev_.host(), remote_host);
    // Fresh PSN space (possibly reusing PSNs from a pre-migration life):
    // drop the NAK-suppression sentinel or the first gap at a reused PSN
    // would be silently swallowed.
    qp->last_nak_psn = static_cast<Psn>(-1);
  }
  qp->state = QpState::rtr;
  dev_.note_qp_transition(qpn, QpState::rtr);
  return Status::ok();
}

Status Context::modify_qp_rts(Qpn qpn, Psn initial_psn) {
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  if (qp->state != QpState::rtr) {
    return common::err(Errc::failed_precondition, "RTR->RTS requires RTR state");
  }
  charge(dev_.costs().modify_qp);
  qp->next_psn = initial_psn;
  qp->acked_psn = initial_psn;
  qp->state = QpState::rts;
  dev_.note_qp_transition(qpn, QpState::rts);
  return Status::ok();
}

Status Context::modify_qp_err(Qpn qpn) {
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  charge(dev_.costs().modify_qp);
  dev_.flush_qp(*qp, /*notify=*/false);
  return Status::ok();
}

Status Context::modify_qp_reset(Qpn qpn) {
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  // Moving a live QP back to RESET aborts everything silently — the paper
  // notes this path is "as slow as setting up new connections"; callers
  // model that cost via CostModel::modify_qp x3.
  charge(dev_.costs().modify_qp);
  qp->state = QpState::reset;
  qp->sq.clear();
  qp->rq.clear();
  qp->next_psn = qp->acked_psn = qp->expected_psn = 0;
  qp->last_nak_psn = static_cast<Psn>(-1);
  qp->tx_high_psn = 0;
  qp->rnr_hold_until = 0;
  qp->emit_cursor = 0;
  qp->route = nullptr;  // re-resolved at the next RTR transition
  qp->recv_active = false;
  qp->atomic_cache.clear();
  qp->n_sent = qp->n_recv = 0;
  qp->retries = 0;
  dev_.note_qp_transition(qpn, QpState::reset);
  return Status::ok();
}

Result<DeviceMemory> Context::alloc_dm(std::uint64_t length) {
  if (length == 0) return common::err(Errc::invalid_argument, "zero-length DM");
  const std::uint64_t rounded = proc::page_ceil(length);
  if (rounded > dev_.dm_free_) {
    return common::err(Errc::resource_exhausted, "on-chip memory exhausted");
  }
  charge(dev_.costs().alloc_dm);
  // The driver maps the NIC memory into the process's address space; the
  // application then uses plain loads/stores (and reg_mr) on that VA.
  MIGR_ASSIGN_OR_RETURN(auto va, proc_.mem().mmap(rounded, "rnic_dm"));
  dev_.dm_free_ -= rounded;
  DeviceMemory dm;
  dm.handle = next_handle_++;
  dm.length = rounded;
  dm.mapped_at = va;
  dms_.emplace(dm.handle, dm);
  return dm;
}

Result<DeviceMemory> Context::adopt_dm(std::uint64_t length, proc::VirtAddr existing_va) {
  const std::uint64_t rounded = proc::page_ceil(length);
  if (rounded > dev_.dm_free_) {
    return common::err(Errc::resource_exhausted, "on-chip memory exhausted");
  }
  if (!proc_.mem().mapped(existing_va, rounded)) {
    return common::err(Errc::invalid_argument, "adopt_dm: range not mapped");
  }
  charge(dev_.costs().alloc_dm);
  dev_.dm_free_ -= rounded;
  DeviceMemory dm;
  dm.handle = next_handle_++;
  dm.length = rounded;
  dm.mapped_at = existing_va;
  dms_.emplace(dm.handle, dm);
  return dm;
}

Status Context::free_dm(Handle dm) {
  auto it = dms_.find(dm);
  if (it == dms_.end()) return common::err(Errc::not_found, "no such DM");
  dev_.dm_free_ += it->second.length;
  (void)proc_.mem().munmap(it->second.mapped_at);
  dms_.erase(it);
  return Status::ok();
}

Result<Handle> Context::alloc_mw(Handle pd) {
  if (!pds_.contains(pd)) return common::err(Errc::not_found, "no such PD");
  charge(dev_.costs().alloc_mw);
  const Handle h = next_handle_++;
  MemoryWindow mw;
  mw.handle = h;
  mw.pd = pd;
  mws_.emplace(h, mw);
  return h;
}

Status Context::dealloc_mw(Handle mw) {
  auto it = mws_.find(mw);
  if (it == mws_.end()) return common::err(Errc::not_found, "no such MW");
  if (it->second.rkey != 0) dev_.rkeys_.erase(it->second.rkey);
  mws_.erase(it);
  return Status::ok();
}

Result<QpState> Context::query_qp_state(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  return qp->state;
}

const Qp* Context::find_qp(Qpn qpn) const {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}
Qp* Context::find_qp_mut(Qpn qpn) {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}
const Mr* Context::find_mr(Lkey lkey) const {
  auto it = mrs_.find(lkey);
  return it == mrs_.end() ? nullptr : &it->second;
}
const Srq* Context::find_srq(Handle h) const {
  auto it = srqs_.find(h);
  return it == srqs_.end() ? nullptr : it->second.get();
}
const Cq* Context::find_cq(Handle h) const {
  auto it = cqs_.find(h);
  return it == cqs_.end() ? nullptr : it->second.get();
}
Cq* Context::find_cq_mut(Handle h) {
  auto it = cqs_.find(h);
  return it == cqs_.end() ? nullptr : it->second.get();
}

}  // namespace migr::rnic
