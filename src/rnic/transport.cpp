// Data path: WR posting/validation, the transmit scheduler, the RC
// reliability protocol (cumulative ACK + go-back-N), responder execution of
// SEND/WRITE/READ/ATOMIC, and completion delivery.
#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "rnic/device.hpp"

namespace migr::rnic {

using common::Errc;
using common::Result;
using common::Status;

namespace {

constexpr std::uint8_t kErrNone = 0;
constexpr std::uint8_t kErrRemoteAccess = 1;
// NAK syndrome (carried in the spare atomic_op byte, like kErrRemoteAccess):
// receiver-not-ready is flow control — the requester waits kRnrHold and
// retries without consuming retry budget (IB's separate, default-infinite
// rnr_retry) — whereas a plain sequence-error NAK counts against the budget.
constexpr std::uint8_t kNakRnr = 2;

// Most packets of one WQE a QP alone in the transmit rotation emits in one
// pump slot.
constexpr std::uint32_t kMaxBurst = 64;

// Whether [addr, addr+len) lies inside [base, base+size). Written without
// `addr + len`, which a hostile remote address can wrap past 2^64.
bool in_bounds(std::uint64_t base, std::uint64_t size, std::uint64_t addr, std::uint64_t len) {
  return addr >= base && len <= size && addr - base <= size - len;
}

// SEND and WRITE requests carry the message payload itself, MTU by MTU.
bool carries_payload(WrOpcode op) {
  return op == WrOpcode::send || op == WrOpcode::send_with_imm || op == WrOpcode::rdma_write ||
         op == WrOpcode::rdma_write_with_imm;
}

CqeOpcode send_cqe_opcode(WrOpcode op) {
  switch (op) {
    case WrOpcode::send:
    case WrOpcode::send_with_imm: return CqeOpcode::send;
    case WrOpcode::rdma_write:
    case WrOpcode::rdma_write_with_imm: return CqeOpcode::rdma_write;
    case WrOpcode::rdma_read: return CqeOpcode::rdma_read;
    case WrOpcode::atomic_cmp_and_swp:
    case WrOpcode::atomic_fetch_and_add: return CqeOpcode::atomic;
    case WrOpcode::bind_mw: return CqeOpcode::bind_mw;
  }
  return CqeOpcode::send;
}

}  // namespace

// ---------------------------------------------------------------------------
// Posting
// ---------------------------------------------------------------------------

Status Device::validate_sges(Context& ctx, std::span<const Sge> sge, bool need_write) {
  if (sge.size() > 16) return common::err(Errc::invalid_argument, "too many SGEs");
  for (const auto& s : sge) {
    if (s.length == 0) continue;
    const Mr* mr = ctx.find_mr(s.lkey);
    if (mr == nullptr) return common::err(Errc::permission_denied, "bad lkey");
    if (!in_bounds(mr->addr, mr->length, s.addr, s.length)) {
      return common::err(Errc::permission_denied, "SGE outside MR bounds");
    }
    if (need_write && (mr->access & kAccessLocalWrite) == 0) {
      return common::err(Errc::permission_denied, "MR lacks local write access");
    }
  }
  return Status::ok();
}

Status Context::post_send(Qpn qpn, SendWr wr) {
  // No completion rule exists for an opcode outside WrOpcode: such a WQE
  // would hold the SQ head until the retry budget ran out.
  if (wr.opcode > kLastWrOpcode) return common::err(Errc::invalid_argument, "unknown WR opcode");
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  if (qp->state != QpState::rts) {
    return common::err(Errc::failed_precondition, "QP not in RTS");
  }
  if (qp->sq.full()) return common::err(Errc::resource_exhausted, "SQ full");

  const bool local_write = wr.opcode == WrOpcode::rdma_read;
  MIGR_RETURN_IF_ERROR(dev_.validate_sges(*this, wr.sge, local_write));

  SendWqe wqe;
  wqe.bytes = wr.total_length();
  const std::uint32_t mtu = dev_.fabric().config().mtu;
  switch (wr.opcode) {
    case WrOpcode::send:
    case WrOpcode::send_with_imm:
    case WrOpcode::rdma_write:
    case WrOpcode::rdma_write_with_imm:
      wqe.npkts = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, (wqe.bytes + mtu - 1) / mtu));
      break;
    case WrOpcode::rdma_read:
    case WrOpcode::atomic_cmp_and_swp:
    case WrOpcode::atomic_fetch_and_add:
      wqe.npkts = 1;
      break;
    case WrOpcode::bind_mw:
      wqe.npkts = 0;
      break;
  }
  if (qp->type == QpType::ud) {
    if (!is_two_sided(wr.opcode)) {
      return common::err(Errc::invalid_argument, "UD supports only SEND");
    }
    if (wqe.bytes > mtu) {
      return common::err(Errc::invalid_argument, "UD message exceeds MTU");
    }
  }
  if (wr.opcode == WrOpcode::atomic_cmp_and_swp || wr.opcode == WrOpcode::atomic_fetch_and_add) {
    if (wqe.bytes != 8) return common::err(Errc::invalid_argument, "atomic requires 8-byte SGE");
    if (wr.remote_addr % 8 != 0) {
      return common::err(Errc::invalid_argument, "atomic target must be 8-byte aligned");
    }
  }
  if (is_two_sided(wr.opcode) || wr.opcode == WrOpcode::rdma_write_with_imm) {
    // Driver-visible counter used by wait-before-stop's n_sent (§3.4).
    qp->n_sent++;
  }
  wqe.wr = std::move(wr);
  qp->sq.push(std::move(wqe));
  dev_.metrics_.wqe_posted->inc();
  dev_.kick(*qp);
  return Status::ok();
}

Status Context::post_recv(Qpn qpn, RecvWr wr) {
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  if (qp->srq != 0) {
    return common::err(Errc::invalid_argument, "QP uses an SRQ; post to the SRQ");
  }
  if (qp->state == QpState::reset) {
    return common::err(Errc::failed_precondition, "QP in RESET");
  }
  MIGR_RETURN_IF_ERROR(dev_.validate_sges(*this, wr.sge, /*need_write=*/true));
  if (!qp->rq.push(std::move(wr))) {
    return common::err(Errc::resource_exhausted, "RQ full");
  }
  dev_.metrics_.recv_posted->inc();
  return Status::ok();
}

Status Context::post_srq_recv(Handle srq, RecvWr wr) {
  auto it = srqs_.find(srq);
  if (it == srqs_.end()) return common::err(Errc::not_found, "no such SRQ");
  MIGR_RETURN_IF_ERROR(dev_.validate_sges(*this, wr.sge, /*need_write=*/true));
  if (!it->second->wqes.push(std::move(wr))) {
    return common::err(Errc::resource_exhausted, "SRQ full");
  }
  dev_.metrics_.recv_posted->inc();
  return Status::ok();
}

Result<Rkey> Context::bind_mw(Qpn qpn, Handle mw_handle, Lkey mr_lkey, proc::VirtAddr addr,
                              std::uint64_t length, std::uint32_t access,
                              std::uint64_t wr_id) {
  auto it = mws_.find(mw_handle);
  if (it == mws_.end()) return common::err(Errc::not_found, "no such MW");
  const Mr* mr = find_mr(mr_lkey);
  if (mr == nullptr) return common::err(Errc::not_found, "no such MR");
  if ((mr->access & kAccessMwBind) == 0) {
    return common::err(Errc::permission_denied, "MR lacks MW-bind access");
  }
  if (!in_bounds(mr->addr, mr->length, addr, length)) {
    return common::err(Errc::invalid_argument, "MW range outside MR");
  }
  Qp* qp = find_qp_mut(qpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such QP");
  if (qp->state != QpState::rts) return common::err(Errc::failed_precondition, "QP not RTS");
  if (qp->sq.full()) return common::err(Errc::resource_exhausted, "SQ full");

  // The new rkey is allocated now (returned to the app synchronously, as
  // ibv_bind_mw does); the *activation* is ordered on the SQ.
  const Rkey new_rkey = dev_.alloc_key();
  SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = WrOpcode::bind_mw;
  wr.rkey = new_rkey;
  wr.remote_addr = addr;
  // Pack bind params through fields we don't otherwise use on this opcode.
  wr.compare_add = length;
  wr.imm = access;
  wr.swap = (static_cast<std::uint64_t>(mw_handle) << 32) | mr_lkey;
  wr.signaled = true;

  SendWqe wqe;
  wqe.bytes = 0;
  wqe.npkts = 0;
  wqe.wr = std::move(wr);
  qp->sq.push(std::move(wqe));
  dev_.metrics_.wqe_posted->inc();
  dev_.kick(*qp);
  return new_rkey;
}

int Context::poll_cq(Handle cq, std::span<Cqe> out) {
  auto it = cqs_.find(cq);
  if (it == cqs_.end()) return -1;
  Cq& q = *it->second;
  int n = 0;
  while (n < static_cast<int>(out.size()) && !q.entries.empty()) {
    out[n++] = q.entries.pop();
  }
  return n;
}

Status Context::req_notify_cq(Handle cq) {
  auto it = cqs_.find(cq);
  if (it == cqs_.end()) return common::err(Errc::not_found, "no such CQ");
  if (it->second->channel == 0) {
    return common::err(Errc::failed_precondition, "CQ has no completion channel");
  }
  it->second->armed = true;
  return Status::ok();
}

std::optional<Handle> Context::get_cq_event(Handle channel) {
  auto it = channels_.find(channel);
  if (it == channels_.end() || it->second.pending.empty()) return std::nullopt;
  const Handle cq = it->second.pending.front();
  it->second.pending.pop_front();
  it->second.events_delivered++;
  return cq;
}

void Context::ack_cq_events(Handle channel, std::uint32_t n) {
  auto it = channels_.find(channel);
  if (it != channels_.end()) it->second.events_acked += n;
}

void Context::push_cqe(Handle cq_handle, Cqe cqe) {
  auto it = cqs_.find(cq_handle);
  if (it == cqs_.end()) return;
  Cq& cq = *it->second;
  if (!cq.entries.push(cqe)) {
    cq.overflowed = true;  // CQ overrun is fatal on real hardware too
    MIGR_ERROR() << "CQ " << cq_handle << " overflow on device " << dev_.host();
    return;
  }
  dev_.metrics_.cqe_delivered->inc();
  if (next_cqe_watch_) {
    // Move out first: the watcher may re-install itself.
    auto watch = std::move(next_cqe_watch_);
    next_cqe_watch_ = nullptr;
    watch();
  }
  if (cq.armed && cq.channel != 0) {
    cq.armed = false;
    auto ch = channels_.find(cq.channel);
    if (ch != channels_.end()) ch->second.pending.push_back(cq_handle);
  }
  // The completion is work for the owning process's parked pollers. The
  // context belongs to one process for life (a migrated guest opens a new
  // one on its destination), so there is no per-CQ hook to move.
  proc_.wake_tasks();
}

// ---------------------------------------------------------------------------
// Transmit scheduler
// ---------------------------------------------------------------------------

void Device::kick(Qp& qp) {
  if (qp.in_pump) return;
  qp.in_pump = true;
  pump_queue_.push_back(qp.qpn);
  if (!pump_scheduled_) schedule_pump(loop_.now());
}

void Device::schedule_pump(sim::TimeNs at) {
  pump_scheduled_ = true;
  loop_.post_at(at, [this] { pump(); });
}

void Device::pump() {
  pump_scheduled_ = false;
  // Round-robin: the first QP with emittable work emits one packet, or a
  // burst of up to kMaxBurst packets of one WQE when it is alone in the
  // rotation (a connected RC QP, the only kind with a route, and no
  // control-command pressure); it is requeued and the next slot is paced at
  // the port's serialization rate. QPs with no emittable work fall out of
  // the ring until re-kicked.
  while (!pump_queue_.empty()) {
    const Qpn qpn = pump_queue_.front();
    pump_queue_.pop_front();
    auto it = qp_routes_.find(qpn);
    if (it == qp_routes_.end()) continue;  // destroyed while queued
    Qp& qp = *it->second;
    const bool may_burst = pump_queue_.empty() && qp.route != nullptr && !under_ctrl_pressure();
    if (emit_packets(qp, may_burst ? kMaxBurst : 1)) {
      // More work? Keep it in the rotation.
      if (qp.emit_cursor < qp.sq.tail()) {
        pump_queue_.push_back(qpn);
      } else {
        qp.in_pump = false;
      }
      sim::TimeNs next = std::max(loop_.now(), *egress_clock_);
      if (under_ctrl_pressure()) {
        // Command-interface contention: data path slows by a few percent
        // while the NIC processes control commands (Fig. 5 brownout).
        next += fabric_.wire_time(fabric_.config().mtu) / 12;
      }
      if (!pump_queue_.empty()) schedule_pump(next);
      return;
    }
    qp.in_pump = false;
  }
}

bool Device::emit_packets(Qp& qp, std::uint32_t budget) {
  if (qp.state != QpState::rts || rnr_held(qp)) return false;
  if (qp.emit_cursor < qp.sq.head()) qp.emit_cursor = qp.sq.head();

  while (qp.emit_cursor < qp.sq.tail()) {
    SendWqe& wqe = qp.sq.at(static_cast<std::size_t>(qp.emit_cursor - qp.sq.head()));
    if (!wqe.psn_assigned) {
      wqe.first_psn = qp.next_psn;
      qp.next_psn += wqe.npkts;
      wqe.psn_assigned = true;
    }
    if (wqe.wr.opcode == WrOpcode::bind_mw) {
      // Executed on the NIC without touching the wire, ordered with the SQ.
      if (!wqe.executed) {
        const Handle mw_handle = static_cast<Handle>(wqe.wr.swap >> 32);
        auto mw_it = qp.ctx->mws_.find(mw_handle);
        if (mw_it != qp.ctx->mws_.end()) {
          MemoryWindow& mw = mw_it->second;
          if (mw.rkey != 0) rkeys_.erase(mw.rkey);  // re-bind invalidates old rkey
          mw.rkey = wqe.wr.rkey;
          mw.mr_lkey = static_cast<Lkey>(wqe.wr.swap & 0xFFFF'FFFF);
          mw.addr = wqe.wr.remote_addr;
          mw.length = wqe.wr.compare_add;
          mw.access = wqe.wr.imm;
          rkeys_[mw.rkey] = RkeyTarget{qp.ctx, mw.addr, mw.length, mw.access, mw.pd};
        }
        wqe.executed = true;
      }
      qp.emit_cursor++;
      complete_head_wqes(qp);
      continue;
    }
    if (wqe.emitted_pkts >= wqe.npkts) {
      qp.emit_cursor++;
      continue;
    }

    // SEND and WRITE spend the budget on this WQE's packets; the burst ends
    // at the WQE's last packet. READ and ATOMIC requests are one packet.
    const bool payload = carries_payload(wqe.wr.opcode);
    const std::uint32_t n = payload ? std::min(budget, wqe.npkts - wqe.emitted_pkts) : 1;
    for (std::uint32_t i = 0; i < n; ++i) {
      WirePacket pkt;
      net::HostId dst_host = qp.remote_host;
      if (payload) {
        if (!build_payload_packet(qp, wqe, pkt)) {
          flush_qp(qp, /*notify=*/true, qp.emit_cursor, CqeStatus::local_protection_err);
          return i > 0;  // whether a packet left before the fault
        }
        if (qp.type == QpType::ud) {
          dst_host = wqe.wr.remote_host;
          pkt.dst_qpn = wqe.wr.remote_qpn;
        }
      } else {
        // READ and ATOMIC requests: one packet, answered by a response that
        // echoes the WQE's token.
        pkt.src_qpn = qp.qpn;
        pkt.dst_qpn = qp.remote_qpn;
        pkt.psn = wqe.first_psn;
        pkt.remote_addr = wqe.wr.remote_addr;
        pkt.rkey = wqe.wr.rkey;
        pkt.resp_token = wqe.first_psn;
        pkt.first = pkt.last = true;
        if (wqe.wr.opcode == WrOpcode::rdma_read) {
          pkt.op = PktOp::read_req;
          pkt.msg_len = static_cast<std::uint32_t>(wqe.bytes);
        } else {
          pkt.op = PktOp::atomic_req;
          pkt.atomic_op = wqe.wr.opcode == WrOpcode::atomic_cmp_and_swp ? 0 : 1;
          pkt.compare_add = wqe.wr.compare_add;
          pkt.swap = wqe.wr.swap;
        }
      }
      if (qp.type == QpType::rc) note_request_tx(qp, pkt.psn);
      transmit(std::move(pkt), dst_host,
               qp.type == QpType::rc ? qp.route : fabric_.route(host_, dst_host));
      wqe.emitted_pkts++;
    }
    if (wqe.emitted_pkts == wqe.npkts) qp.emit_cursor++;
    qp.last_progress = loop_.now();

    if (qp.type == QpType::ud) {
      complete_head_wqes(qp);  // UD completes at transmission
    } else {
      arm_retransmit_timer(qp);
    }
    return true;
  }
  return false;
}

bool Device::build_payload_packet(Qp& qp, SendWqe& wqe, WirePacket& pkt) {
  const std::uint32_t mtu = fabric_.config().mtu;
  const std::uint64_t offset = static_cast<std::uint64_t>(wqe.emitted_pkts) * mtu;
  const std::uint32_t chunk =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(mtu, wqe.bytes - offset));
  // Each emission DMA-reads its packet into a block of its own, so the
  // bytes on the wire are fixed when the packet leaves, as on hardware.
  pkt.payload = common::PayloadRef::alloc(chunk);
  if (chunk > 0) {
    auto st = dma_read(*qp.ctx, wqe.wr.sge, offset, pkt.payload.mutable_span());
    if (!st.is_ok()) {
      // Local protection fault mid-transfer (e.g. buffer unmapped): the
      // caller moves the QP to error, as real hardware does.
      MIGR_WARN() << "local DMA fault on QP " << qp.qpn << ": " << st.to_string();
      return false;
    }
  }
  const bool is_write = wqe.wr.opcode == WrOpcode::rdma_write ||
                        wqe.wr.opcode == WrOpcode::rdma_write_with_imm;
  pkt.op = is_write ? PktOp::write : PktOp::send;
  pkt.src_qpn = qp.qpn;
  pkt.dst_qpn = qp.remote_qpn;
  pkt.psn = wqe.first_psn + wqe.emitted_pkts;
  pkt.first = wqe.emitted_pkts == 0;
  pkt.last = wqe.emitted_pkts + 1 == wqe.npkts;
  pkt.offset = static_cast<std::uint32_t>(offset);
  pkt.msg_len = static_cast<std::uint32_t>(wqe.bytes);
  if (is_write) {
    pkt.remote_addr = wqe.wr.remote_addr + offset;
    pkt.rkey = wqe.wr.rkey;
  }
  if (pkt.last && (wqe.wr.opcode == WrOpcode::send_with_imm ||
                   wqe.wr.opcode == WrOpcode::rdma_write_with_imm)) {
    pkt.has_imm = true;
    pkt.imm = wqe.wr.imm;
  }
  return true;
}

void Device::note_request_tx(Qp& qp, Psn psn) {
  if (psn < qp.tx_high_psn) {
    counters_.tx_retransmit_packets++;
  } else {
    qp.tx_high_psn = psn + 1;
  }
}

net::Packet Device::frame(WirePacket&& pkt, net::HostId dst) {
  counters_.tx_packets++;
  counters_.tx_bytes += pkt.payload.size();
  net::Packet raw;
  raw.src = host_;
  raw.dst = dst;
  pkt.serialize_header(raw.header);
  raw.body = std::move(pkt.payload);
  return raw;
}

void Device::transmit(WirePacket pkt, net::HostId dst, net::Fabric::Route* route) {
  net::Packet raw = frame(std::move(pkt), dst);
  if (route != nullptr) {
    fabric_.send_data(*route, std::move(raw));
  } else {
    fabric_.send_data(std::move(raw));
  }
}

// ---------------------------------------------------------------------------
// Reliability: acks, naks, timers
// ---------------------------------------------------------------------------

namespace {
/// Rewind a QP's transmit progress so that everything from `from_psn` on is
/// re-emitted (go-back-N).
void rewind_to(Qp& qp, Psn from_psn) {
  for (std::size_t i = 0; i < qp.sq.size(); ++i) {
    SendWqe& w = qp.sq.at(i);
    if (!w.psn_assigned || w.npkts == 0) continue;
    const Psn end = w.first_psn + w.npkts;
    if (end <= from_psn) continue;
    const std::uint32_t keep =
        from_psn > w.first_psn ? static_cast<std::uint32_t>(from_psn - w.first_psn) : 0;
    if (w.emitted_pkts > keep) w.emitted_pkts = keep;
    if (w.emitted_pkts < w.npkts) {
      qp.emit_cursor = std::min(qp.emit_cursor, qp.sq.head() + i);
    }
  }
}

/// Earliest PSN that still needs (re)transmission for this QP: the
/// cumulative acked point, pulled back to any incomplete READ/ATOMIC whose
/// responses may have been lost (their acks are implicit in the responses).
Psn retransmit_point(const Qp& qp) {
  Psn point = qp.acked_psn;
  for (std::size_t i = 0; i < qp.sq.size(); ++i) {
    const SendWqe& w = qp.sq.at(i);
    if (!w.psn_assigned) break;
    const bool read_pending = w.wr.opcode == WrOpcode::rdma_read && w.resp_received < w.bytes;
    const bool atomic_pending = (w.wr.opcode == WrOpcode::atomic_cmp_and_swp ||
                                 w.wr.opcode == WrOpcode::atomic_fetch_and_add) &&
                                !w.resp_done;
    if ((read_pending || atomic_pending) && w.first_psn < point) point = w.first_psn;
  }
  return point;
}
}  // namespace

void Device::arm_retransmit_timer(Qp& qp) {
  if (qp.rtx_armed) return;  // the pending timer follows the deadline
  qp.rtx_armed = true;
  const Qpn qpn = qp.qpn;
  loop_.post_at(qp.last_progress + costs().retransmit_timeout,
                [this, qpn] { on_retransmit_timer(qpn); });
}

void Device::on_retransmit_timer(Qpn qpn) {
  auto it = qp_routes_.find(qpn);
  if (it == qp_routes_.end()) return;
  Qp& qp = *it->second;
  qp.rtx_armed = false;
  if (qp.state != QpState::rts || qp.type != QpType::rc) return;
  if (qp.sq.empty()) return;
  // Progress since this event was posted (an emission, an ACK, a response)
  // moved the deadline out. last_progress only moves forward, so the event
  // is never past the deadline: follow it there.
  if (loop_.now() < qp.last_progress + costs().retransmit_timeout) {
    arm_retransmit_timer(qp);
    return;
  }
  const SendWqe& head = qp.sq.front();
  if (!head.psn_assigned) return;
  qp.retries++;
  if (qp.retries > costs().retry_count) {
    MIGR_WARN() << "QP " << qpn << " retry budget exhausted; moving to error";
    flush_qp(qp, /*notify=*/true, qp.sq.head(), CqeStatus::retry_exceeded);
    return;
  }
  counters_.retransmits++;
  qp.retransmits++;
  metrics_.retransmits->inc();
  rewind_to(qp, retransmit_point(qp));
  qp.last_progress = loop_.now();
  kick(qp);
  arm_retransmit_timer(qp);
}

void Device::send_ack(Qp& qp) {
  WirePacket ack;
  ack.op = PktOp::ack;
  ack.src_qpn = qp.qpn;
  ack.dst_qpn = qp.remote_qpn;
  ack.psn = qp.expected_psn;  // cumulative: everything below is received
  transmit(std::move(ack), qp.remote_host, qp.route);
}

void Device::note_nak_for_storm(const Qp& qp) {
  if (config_.nak_storm_threshold == 0) return;
  const sim::TimeNs now = loop_.now();
  if (now - nak_window_start_ > config_.nak_storm_window) {
    nak_window_start_ = now;
    nak_window_count_ = 0;
  }
  if (++nak_window_count_ < config_.nak_storm_threshold) return;
  // Threshold tripped: dump and re-arm on a fresh window so a sustained
  // storm produces one dump per window, not one per NAK.
  nak_window_start_ = now;
  nak_window_count_ = 0;
  auto& rec = obs::FlightRecorder::global();
  if (!rec.enabled()) return;
  std::string detail = "\"host\":" + std::to_string(host_) +
                       ",\"qpn\":" + std::to_string(qp.qpn) +
                       ",\"naks_in_window\":" + std::to_string(config_.nak_storm_threshold);
  rec.trigger_dump(now, "nak_storm", detail);
}

void Device::send_nak(Qp& qp, bool rnr) {
  if (qp.last_nak_psn == qp.expected_psn) return;  // one NAK per gap event
  qp.last_nak_psn = qp.expected_psn;
  metrics_.nak_tx->inc();
  note_nak_for_storm(qp);
  WirePacket nak;
  nak.op = PktOp::nak;
  nak.src_qpn = qp.qpn;
  nak.dst_qpn = qp.remote_qpn;
  nak.psn = qp.expected_psn;
  nak.atomic_op = rnr ? kNakRnr : kErrNone;
  transmit(std::move(nak), qp.remote_host, qp.route);
}

void Device::hold_for_rnr(Qp& qp) {
  counters_.rnr_waits++;
  const sim::TimeNs until = loop_.now() + kRnrHold;
  if (until <= qp.rnr_hold_until) return;  // a NAK at this instant already holds it
  qp.rnr_hold_until = until;
  const Qpn qpn = qp.qpn;
  loop_.post_at(until, [this, qpn] {
    auto it = qp_routes_.find(qpn);
    if (it != qp_routes_.end() && it->second->state == QpState::rts) kick(*it->second);
  });
}

void Device::on_ack(Qp& qp, const WirePacket& pkt) {
  if (pkt.atomic_op == kErrRemoteAccess) {
    // Remote access error: fatal for the QP, per RC semantics.
    flush_qp(qp, /*notify=*/true, qp.sq.head(), CqeStatus::remote_access_err);
    return;
  }
  if (pkt.psn > qp.acked_psn) {
    qp.acked_psn = pkt.psn;
    qp.retries = 0;
    qp.last_progress = loop_.now();
    complete_head_wqes(qp);
  }
  if (pkt.op == PktOp::nak) {
    // A sequence-error NAK rewind consumes retry budget just like a timeout
    // does; ACK progress (above) resets it, so only progress-free rewinds
    // accumulate and a persistently broken peer cannot keep the QP
    // rewinding forever. RNR NAKs are flow control, not network damage, and
    // stay budget-free (IB's rnr_retry, default infinite).
    if (pkt.atomic_op != kNakRnr) {
      qp.retries++;
      if (qp.retries > costs().retry_count) {
        MIGR_WARN() << "QP " << qp.qpn << " NAK rewind budget exhausted; moving to error";
        flush_qp(qp, /*notify=*/true, qp.sq.head(), CqeStatus::retry_exceeded);
        return;
      }
    }
    counters_.retransmits++;
    qp.retransmits++;
    metrics_.retransmits->inc();
    rewind_to(qp, retransmit_point(qp));
    if (pkt.atomic_op == kNakRnr) {
      // The responder is alive, only not ready: that is progress for the
      // retransmit timer. Go back to the NAKed PSN once the RNR wait ends;
      // re-kicking now would replay the window into an empty RQ at line
      // rate, every packet behind the first dropped out of sequence.
      qp.last_progress = loop_.now();
      hold_for_rnr(qp);
      return;
    }
    kick(qp);
  }
}

void Device::complete_head_wqes(Qp& qp) {
  while (!qp.sq.empty()) {
    SendWqe& w = qp.sq.front();
    bool done = false;
    switch (w.wr.opcode) {
      case WrOpcode::send:
      case WrOpcode::send_with_imm:
      case WrOpcode::rdma_write:
      case WrOpcode::rdma_write_with_imm:
        done = qp.type == QpType::ud
                   ? (w.psn_assigned && w.emitted_pkts == w.npkts)
                   : (w.psn_assigned && qp.acked_psn >= w.first_psn + w.npkts);
        break;
      case WrOpcode::rdma_read:
        done = w.resp_received >= w.bytes;
        break;
      case WrOpcode::atomic_cmp_and_swp:
      case WrOpcode::atomic_fetch_and_add:
        done = w.resp_done;
        break;
      case WrOpcode::bind_mw:
        done = w.executed;
        break;
    }
    if (!done) break;
    complete_send(qp, w, CqeStatus::success);
    qp.sq.pop();
    if (qp.emit_cursor < qp.sq.head()) qp.emit_cursor = qp.sq.head();
  }
}

void Device::complete_send(Qp& qp, const SendWqe& w, CqeStatus status) {
  if (status == CqeStatus::success && !w.wr.signaled) return;
  Cqe cqe;
  cqe.wr_id = w.wr.wr_id;
  cqe.status = status;
  cqe.opcode = send_cqe_opcode(w.wr.opcode);
  if (status == CqeStatus::success) cqe.byte_len = static_cast<std::uint32_t>(w.bytes);
  cqe.qpn = qp.qpn;
  qp.ctx->push_cqe(qp.send_cq, cqe);
}

void Device::flush_qp(Qp& qp, bool notify, std::uint64_t culprit, CqeStatus reason) {
  qp.state = QpState::err;
  note_qp_transition(qp.qpn, QpState::err);
  while (!qp.sq.empty()) {
    const bool is_culprit = qp.sq.head() == culprit;
    const SendWqe w = qp.sq.pop();
    complete_send(qp, w, is_culprit ? reason : CqeStatus::wr_flush_err);
  }
  while (!qp.rq.empty()) {
    RecvWr w = qp.rq.pop();
    Cqe cqe;
    cqe.wr_id = w.wr_id;
    cqe.status = CqeStatus::wr_flush_err;
    cqe.opcode = CqeOpcode::recv;
    cqe.qpn = qp.qpn;
    qp.ctx->push_cqe(qp.recv_cq, cqe);
  }
  qp.emit_cursor = qp.sq.head();
  qp.recv_active = false;
  if (notify && qp.ctx->qp_error_handler_) qp.ctx->qp_error_handler_(qp.qpn);
}

// ---------------------------------------------------------------------------
// Responder / receive path
// ---------------------------------------------------------------------------

void Device::handle_packet(net::Packet&& raw) {
  auto parsed = WirePacket::parse(std::move(raw));
  if (!parsed.is_ok()) {
    MIGR_WARN() << "malformed packet dropped on host " << host_;
    return;
  }
  WirePacket pkt = std::move(parsed).value();
  counters_.rx_packets++;
  counters_.rx_bytes += pkt.payload.size();

  auto it = qp_routes_.find(pkt.dst_qpn);
  if (it == qp_routes_.end()) return;  // stale packet for a destroyed QP
  Qp& qp = *it->second;

  switch (pkt.op) {
    case PktOp::ack:
    case PktOp::nak:
      if (qp.state == QpState::rts) on_ack(qp, pkt);
      return;
    case PktOp::read_resp:
      if (qp.state == QpState::rts) on_read_resp(qp, pkt);
      return;
    case PktOp::atomic_resp:
      if (qp.state == QpState::rts) on_atomic_resp(qp, pkt);
      return;
    default:
      break;
  }

  if (qp.state != QpState::rtr && qp.state != QpState::rts) return;
  if (qp.type == QpType::rc && pkt.src_qpn != qp.remote_qpn) return;  // not my peer
  on_request(qp, pkt);
}

void Device::on_request(Qp& qp, WirePacket& pkt) {
  if (qp.type == QpType::ud) {
    // Datagram: no PSN discipline; needs an RQ WQE or the packet is dropped.
    if (qp.rq.empty()) return;
    RecvWr wr = qp.rq.pop();
    const auto len = static_cast<std::uint32_t>(pkt.payload.size());
    if (len > wr.total_length() ||
        (len > 0 && !dma_write(*qp.ctx, wr.sge, 0, std::move(pkt.payload)).is_ok())) {
      fail_recv(qp, wr);  // the WQE comes back in error; the QP keeps receiving
      return;
    }
    qp.n_recv++;
    deliver_recv_cqe(qp, wr, len, pkt.has_imm, pkt.imm, pkt.src_qpn);
    return;
  }

  // --- RC PSN discipline ---
  if (pkt.psn < qp.expected_psn) {
    // Duplicate from a go-back-N replay. Re-ack; replay read/atomic results.
    counters_.rx_duplicate++;
    switch (pkt.op) {
      case PktOp::read_req:
        on_request_read(qp, pkt);  // reads are idempotent: re-execute
        return;
      case PktOp::atomic_req: {
        auto it = qp.atomic_cache.find(pkt.psn);
        if (it != qp.atomic_cache.end()) {
          WirePacket resp;
          resp.op = PktOp::atomic_resp;
          resp.src_qpn = qp.qpn;
          resp.dst_qpn = qp.remote_qpn;
          resp.psn = pkt.psn;
          resp.resp_token = pkt.resp_token;
          resp.payload = common::PayloadRef::alloc(8);
          std::uint64_t v = it->second;
          std::memcpy(resp.payload.mutable_data(), &v, 8);
          transmit(std::move(resp), qp.remote_host, qp.route);
        }
        return;
      }
      default:
        send_ack(qp);
        return;
    }
  }
  if (pkt.psn > qp.expected_psn) {
    counters_.out_of_sequence++;
    metrics_.out_of_sequence->inc();
    send_nak(qp);
    return;
  }
  qp.last_nak_psn = static_cast<Psn>(-1);

  switch (pkt.op) {
    case PktOp::send: {
      if (!qp.recv_active && pkt.first) {
        // Claim a receive WQE at message start, from the SRQ if attached.
        RecvWr wr;
        if (qp.srq != 0) {
          auto* srq = qp.ctx->srqs_.find(qp.srq)->second.get();
          if (srq->wqes.empty()) {
            counters_.rx_rnr_drop++;
            send_nak(qp, /*rnr=*/true);  // receiver-not-ready; sender will retry
            return;
          }
          wr = srq->wqes.pop();
        } else {
          if (qp.rq.empty()) {
            counters_.rx_rnr_drop++;
            send_nak(qp, /*rnr=*/true);
            return;
          }
          wr = qp.rq.pop();
        }
        if (pkt.msg_len > wr.total_length()) {
          // Message too long for the posted buffer: local length error.
          fail_recv(qp, wr);
          flush_qp(qp, /*notify=*/true);
          return;
        }
        qp.recv_active = true;
        qp.recv_cur = std::move(wr);
        qp.recv_msg_len = pkt.msg_len;
        qp.recv_written = 0;
      }
      if (!qp.recv_active) return;  // mid-message packet with no assembly: drop
      if (!pkt.payload.empty()) {
        const auto len = static_cast<std::uint32_t>(pkt.payload.size());
        if (!dma_write(*qp.ctx, qp.recv_cur.sge, pkt.offset, std::move(pkt.payload)).is_ok()) {
          // The receive buffer went away under the message: local
          // protection error, like a message too long for it.
          fail_recv(qp, qp.recv_cur);
          flush_qp(qp, /*notify=*/true);
          return;
        }
        qp.recv_written += len;
      }
      qp.expected_psn = pkt.psn + 1;
      counters_.rx_in_order++;
      if (pkt.last) {
        qp.recv_active = false;
        qp.n_recv++;
        deliver_recv_cqe(qp, qp.recv_cur, qp.recv_msg_len, pkt.has_imm, pkt.imm,
                         qp.remote_qpn);
        send_ack(qp);
      } else if ((qp.expected_psn & 0xF) == 0) {
        send_ack(qp);
      }
      return;
    }
    case PktOp::write: {
      const RkeyTarget* target = find_rkey(pkt.rkey);
      if (target == nullptr || target->ctx != qp.ctx || target->pd != qp.pd ||
          (target->access & kAccessRemoteWrite) == 0 ||
          !in_bounds(target->addr, target->length, pkt.remote_addr, pkt.payload.size())) {
        reply_remote_error(qp);
        return;
      }
      if (!pkt.payload.empty()) {
        // DMA into the target process's memory: dirties pages for pre-copy.
        // An MR can outlive its memory (free_dm unmaps what an MR covers).
        const Sge dst{pkt.remote_addr, static_cast<std::uint32_t>(pkt.payload.size()), 0};
        if (!dma_write(*target->ctx, {&dst, 1}, 0, std::move(pkt.payload)).is_ok()) {
          reply_remote_error(qp);
          return;
        }
      }
      qp.expected_psn = pkt.psn + 1;
      if (pkt.last && pkt.has_imm) {
        // WRITE-with-imm consumes a receive WQE and reports a recv CQE.
        RecvWr wr;
        bool have = false;
        if (qp.srq != 0) {
          auto* srq = qp.ctx->srqs_.find(qp.srq)->second.get();
          if (!srq->wqes.empty()) {
            wr = srq->wqes.pop();
            have = true;
          }
        } else if (!qp.rq.empty()) {
          wr = qp.rq.pop();
          have = true;
        }
        if (!have) {
          qp.expected_psn = pkt.psn;  // un-consume; retry like RNR
          counters_.rx_rnr_drop++;
          send_nak(qp, /*rnr=*/true);
          return;
        }
        qp.n_recv++;
        deliver_recv_cqe(qp, wr, pkt.msg_len, true, pkt.imm, qp.remote_qpn);
      }
      counters_.rx_in_order++;
      if (pkt.last) {
        send_ack(qp);
      } else if ((qp.expected_psn & 0xF) == 0) {
        send_ack(qp);
      }
      return;
    }
    case PktOp::read_req:
      qp.expected_psn = pkt.psn + 1;
      counters_.rx_in_order++;
      on_request_read(qp, pkt);
      return;
    case PktOp::atomic_req: {
      const RkeyTarget* target = find_rkey(pkt.rkey);
      if (target == nullptr || target->ctx != qp.ctx || target->pd != qp.pd ||
          (target->access & kAccessRemoteAtomic) == 0 ||
          !in_bounds(target->addr, target->length, pkt.remote_addr, 8)) {
        reply_remote_error(qp);
        return;
      }
      auto& mem = target->ctx->process().mem();
      std::uint8_t buf[8];
      if (!mem.read(pkt.remote_addr, buf).is_ok()) {
        reply_remote_error(qp);
        return;
      }
      std::uint64_t orig;
      std::memcpy(&orig, buf, 8);
      std::uint64_t updated = orig;
      if (pkt.atomic_op == 0) {  // CAS
        if (orig == pkt.compare_add) updated = pkt.swap;
      } else {  // FAA
        updated = orig + pkt.compare_add;
      }
      std::memcpy(buf, &updated, 8);
      if (!mem.write(pkt.remote_addr, buf).is_ok()) {
        reply_remote_error(qp);
        return;
      }
      qp.expected_psn = pkt.psn + 1;
      counters_.rx_in_order++;
      // Bounded replay cache so retried atomics are not re-executed.
      qp.atomic_cache.emplace(pkt.psn, orig);
      while (qp.atomic_cache.size() > 64) qp.atomic_cache.erase(qp.atomic_cache.begin());

      WirePacket resp;
      resp.op = PktOp::atomic_resp;
      resp.src_qpn = qp.qpn;
      resp.dst_qpn = qp.remote_qpn;
      resp.psn = pkt.psn;
      resp.resp_token = pkt.resp_token;
      resp.payload = common::PayloadRef::alloc(8);
      std::memcpy(resp.payload.mutable_data(), &orig, 8);
      transmit(std::move(resp), qp.remote_host, qp.route);
      return;
    }
    default:
      return;
  }
}

void Device::on_request_read(Qp& qp, const WirePacket& pkt) {
  const RkeyTarget* target = find_rkey(pkt.rkey);
  if (target == nullptr || target->ctx != qp.ctx || target->pd != qp.pd ||
      (target->access & kAccessRemoteRead) == 0 ||
      !in_bounds(target->addr, target->length, pkt.remote_addr, pkt.msg_len)) {
    reply_remote_error(qp);
    return;
  }
  // Stream the response, each packet DMA-read into a block of its own.
  // Response packets carry the requester's token so a re-issued read
  // matches up with the same WQE. A failed read (an MR that outlived its
  // memory) ends the stream with a remote access error.
  const std::uint32_t mtu = fabric_.config().mtu;
  auto& mem = target->ctx->process().mem();
  std::uint32_t off = 0;
  do {
    const std::uint32_t chunk = std::min(mtu, pkt.msg_len - off);
    WirePacket resp;
    resp.payload = common::PayloadRef::alloc(chunk);
    if (chunk > 0 && !mem.read(pkt.remote_addr + off, resp.payload.mutable_span()).is_ok()) {
      reply_remote_error(qp);
      return;
    }
    resp.op = PktOp::read_resp;
    resp.src_qpn = qp.qpn;
    resp.dst_qpn = qp.remote_qpn;
    resp.resp_token = pkt.resp_token;
    resp.offset = off;
    resp.msg_len = pkt.msg_len;
    resp.first = off == 0;
    resp.last = off + chunk >= pkt.msg_len;
    transmit(std::move(resp), qp.remote_host, qp.route);
    off += chunk;
  } while (off < pkt.msg_len);
}

void Device::reply_remote_error(Qp& qp) {
  WirePacket e;
  e.op = PktOp::ack;
  e.src_qpn = qp.qpn;
  e.dst_qpn = qp.remote_qpn;
  e.psn = qp.expected_psn;
  e.atomic_op = kErrRemoteAccess;
  transmit(std::move(e), qp.remote_host, qp.route);
}

void Device::on_read_resp(Qp& qp, WirePacket& pkt) {
  // Locate the WQE by its token (= first_psn, stable across retries).
  for (std::size_t i = 0; i < qp.sq.size(); ++i) {
    SendWqe& w = qp.sq.at(i);
    if (!w.psn_assigned || w.first_psn != pkt.resp_token ||
        w.wr.opcode != WrOpcode::rdma_read) {
      continue;
    }
    if (w.resp_received >= w.bytes && w.bytes > 0) return;  // duplicate replay
    // Note: with re-issued reads, offsets may repeat; count via high-water.
    const std::uint64_t high = pkt.offset + pkt.payload.size();
    if (!pkt.payload.empty() &&
        !dma_write(*qp.ctx, w.wr.sge, pkt.offset, std::move(pkt.payload)).is_ok()) {
      fail_landing(qp, qp.sq.head() + i);
      return;
    }
    if (high > w.resp_received) w.resp_received = high;
    qp.last_progress = loop_.now();
    qp.retries = 0;
    if (w.resp_received >= w.bytes) {
      // The read's PSN is implicitly acked by its completed response.
      if (qp.acked_psn < w.first_psn + 1) qp.acked_psn = w.first_psn + 1;
      complete_head_wqes(qp);
    }
    return;
  }
}

void Device::on_atomic_resp(Qp& qp, WirePacket& pkt) {
  for (std::size_t i = 0; i < qp.sq.size(); ++i) {
    SendWqe& w = qp.sq.at(i);
    if (!w.psn_assigned || w.first_psn != pkt.resp_token) continue;
    if (w.wr.opcode != WrOpcode::atomic_cmp_and_swp &&
        w.wr.opcode != WrOpcode::atomic_fetch_and_add) {
      continue;
    }
    if (w.resp_done) return;  // duplicate
    if (pkt.payload.size() == 8 && !w.wr.sge.empty() &&
        !dma_write(*qp.ctx, w.wr.sge, 0, std::move(pkt.payload)).is_ok()) {
      fail_landing(qp, qp.sq.head() + i);
      return;
    }
    w.resp_done = true;
    qp.last_progress = loop_.now();
    qp.retries = 0;
    if (qp.acked_psn < w.first_psn + 1) qp.acked_psn = w.first_psn + 1;
    complete_head_wqes(qp);
    return;
  }
}

void Device::fail_landing(Qp& qp, std::uint64_t wqe) {
  // The response implies an ACK of every PSN before the failed WQE's.
  const Psn first_psn = qp.sq.at(static_cast<std::size_t>(wqe - qp.sq.head())).first_psn;
  if (qp.acked_psn < first_psn) qp.acked_psn = first_psn;
  complete_head_wqes(qp);
  flush_qp(qp, /*notify=*/true, wqe, CqeStatus::local_protection_err);
}

void Device::fail_recv(Qp& qp, const RecvWr& wr) {
  qp.n_recv++;
  Cqe cqe;
  cqe.wr_id = wr.wr_id;
  cqe.status = CqeStatus::local_protection_err;
  cqe.opcode = CqeOpcode::recv;
  cqe.qpn = qp.qpn;
  qp.ctx->push_cqe(qp.recv_cq, cqe);
}

void Device::deliver_recv_cqe(Qp& qp, const RecvWr& wr, std::uint32_t byte_len,
                              bool has_imm, std::uint32_t imm, Qpn src_qp, CqeOpcode op) {
  Cqe cqe;
  cqe.wr_id = wr.wr_id;
  cqe.status = CqeStatus::success;
  cqe.opcode = op;
  cqe.byte_len = byte_len;
  cqe.qpn = qp.qpn;
  cqe.has_imm = has_imm;
  cqe.imm = imm;
  cqe.src_qp = src_qp;
  qp.ctx->push_cqe(qp.recv_cq, cqe);
}

// ---------------------------------------------------------------------------
// DMA helpers
// ---------------------------------------------------------------------------

common::Status Device::dma_read(Context& ctx, std::span<const Sge> sge,
                                std::uint64_t offset, std::span<std::uint8_t> out) {
  std::uint64_t skip = offset;
  std::size_t produced = 0;
  for (const auto& s : sge) {
    if (produced == out.size()) break;
    if (skip >= s.length) {
      skip -= s.length;
      continue;
    }
    const std::uint64_t avail = s.length - skip;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(avail, out.size() - produced));
    MIGR_RETURN_IF_ERROR(ctx.process().mem().read(s.addr + skip, out.subspan(produced, n)));
    produced += n;
    skip = 0;
  }
  if (produced != out.size()) {
    return common::err(Errc::invalid_argument, "SGE list shorter than DMA length");
  }
  return Status::ok();
}

common::Status Device::dma_write(Context& ctx, std::span<const Sge> sge,
                                 std::uint64_t offset, common::PayloadRef&& in) {
  auto& mem = ctx.process().mem();
  const std::size_t total = in.size();
  std::uint64_t skip = offset;
  std::size_t consumed = 0;
  for (const auto& s : sge) {
    if (consumed == total) break;
    if (skip >= s.length) {
      skip -= s.length;
      continue;
    }
    const std::uint64_t avail = s.length - skip;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(avail, total - consumed));
    if (n == total) {
      // The whole payload lands in this SGE: its block may change hands.
      MIGR_RETURN_IF_ERROR(mem.write(s.addr + skip, std::move(in)));
    } else {
      MIGR_RETURN_IF_ERROR(mem.write(s.addr + skip, in.span().subspan(consumed, n)));
    }
    consumed += n;
    skip = 0;
  }
  if (consumed != total) {
    return common::err(Errc::invalid_argument, "recv buffer shorter than message");
  }
  return Status::ok();
}

}  // namespace migr::rnic
