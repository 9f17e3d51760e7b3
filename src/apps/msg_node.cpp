#include "apps/msg_node.hpp"

#include <cstring>

#include "common/log.hpp"

namespace migr::apps {

using common::Errc;
using common::Status;
using rnic::Cqe;
using rnic::CqeOpcode;
using rnic::CqeStatus;
using rnic::RecvWr;
using rnic::SendWr;

MsgNode::MsgNode(MigrRdmaRuntime& runtime, proc::SimProcess& proc, GuestId id,
                 MsgNodeConfig config)
    : runtime_(&runtime), proc_(&proc), id_(id), config_(config) {
  guest_ = runtime.create_guest(proc, id).value();
  pd_ = guest_->alloc_pd().value();
  cq_ = guest_->create_cq(4096).value();
  rx_payload_.reserve(config_.max_msg);
}

MsgNode::~MsgNode() { stop(); }

Status MsgNode::connect(MsgNode& a, MsgNode& b) {
  auto make_peer = [](MsgNode& self) -> common::Result<Peer> {
    Peer peer;
    migrlib::GuestQpAttr attr;
    attr.vpd = self.pd_;
    attr.vsend_cq = self.cq_;
    attr.vrecv_cq = self.cq_;
    attr.caps = {self.config_.depth + 2, self.config_.depth + 2};
    MIGR_ASSIGN_OR_RETURN(peer.vqpn, self.guest_->create_qp(attr));
    const std::uint64_t ring_bytes =
        std::uint64_t{self.config_.max_msg} * self.config_.depth;
    MIGR_ASSIGN_OR_RETURN(peer.send_buf, self.proc_->mem().mmap(ring_bytes, "msg_tx"));
    MIGR_ASSIGN_OR_RETURN(peer.send_mr,
                          self.guest_->reg_mr(self.pd_, peer.send_buf, ring_bytes,
                                              rnic::kAccessLocalWrite));
    MIGR_ASSIGN_OR_RETURN(peer.recv_buf, self.proc_->mem().mmap(ring_bytes, "msg_rx"));
    MIGR_ASSIGN_OR_RETURN(peer.recv_mr,
                          self.guest_->reg_mr(self.pd_, peer.recv_buf, ring_bytes,
                                              rnic::kAccessLocalWrite));
    peer.send_credits = self.config_.depth;
    return peer;
  };
  MIGR_ASSIGN_OR_RETURN(auto pa, make_peer(a));
  MIGR_ASSIGN_OR_RETURN(auto pb, make_peer(b));
  const rnic::Psn psn_a = 7000 + a.id_ * 32;
  const rnic::Psn psn_b = 9000 + b.id_ * 32;
  MIGR_RETURN_IF_ERROR(a.guest_->connect_qp(pa.vqpn, b.id_, pb.vqpn, psn_a, psn_b));
  MIGR_RETURN_IF_ERROR(b.guest_->connect_qp(pb.vqpn, a.id_, pa.vqpn, psn_b, psn_a));

  // Pre-post the full RECV window on both sides.
  auto prepost = [](MsgNode& self, Peer& peer) -> Status {
    for (std::uint32_t d = 0; d < self.config_.depth; ++d) {
      RecvWr wr;
      wr.wr_id = peer.next_recv_seq++;
      wr.sge = {{peer.recv_buf + std::uint64_t{d} * self.config_.max_msg,
                 self.config_.max_msg, peer.recv_mr.vlkey}};
      MIGR_RETURN_IF_ERROR(self.guest_->post_recv(peer.vqpn, std::move(wr)));
    }
    return Status::ok();
  };
  MIGR_RETURN_IF_ERROR(prepost(a, pa));
  MIGR_RETURN_IF_ERROR(prepost(b, pb));
  a.peers_.emplace(b.id_, pa);
  b.peers_.emplace(a.id_, pb);
  return Status::ok();
}

void MsgNode::enable_sli(obs::SliHub& hub) {
  sli_ = hub.guest(id_, proc_->loop().now());
  if (sli_ == nullptr) return;  // hub disabled
  hub.set_retransmit_source(id_, proc_->loop().now(),
                            [this] { return guest_->total_retransmits(); });
  for (auto& [pid, peer] : peers_) {
    peer.send_ts.assign(config_.depth, 0);
    peer.send_bytes.assign(config_.depth, 0);
  }
}

common::Result<VQpn> MsgNode::qp_to(GuestId peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return common::err(Errc::not_found, "peer not connected");
  return it->second.vqpn;
}

Status MsgNode::send(GuestId peer_id, const common::Bytes& payload) {
  if (gate_armed_) {
    if (!peers_.contains(peer_id)) return common::err(Errc::not_found, "peer not connected");
    if (payload.size() + kLenBytes > config_.max_msg) {
      return common::err(Errc::invalid_argument, "message exceeds slot size");
    }
    GatedMsg m;
    m.peer = peer_id;
    m.payload = payload;
    m.epoch = gate_epoch_;
    m.enqueued = proc_->loop().now();
    gate_q_.push_back(std::move(m));
    return Status::ok();
  }
  return send_now(peer_id, payload);
}

Status MsgNode::send_now(GuestId peer_id, const common::Bytes& payload) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) return common::err(Errc::not_found, "peer not connected");
  Peer& peer = it->second;
  if (payload.size() + kLenBytes > config_.max_msg) {
    return common::err(Errc::invalid_argument, "message exceeds slot size");
  }
  if (peer.send_credits == 0) {
    return common::err(Errc::resource_exhausted, "send window full");
  }
  const std::uint32_t slot = peer.send_slot % config_.depth;
  const std::uint64_t addr = peer.send_buf + std::uint64_t{slot} * config_.max_msg;
  // The slot holds a little-endian u32 length, then the payload, both
  // written straight into it.
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t hdr[kLenBytes] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16), static_cast<std::uint8_t>(len >> 24)};
  MIGR_RETURN_IF_ERROR(proc_->mem().write(addr, hdr));
  MIGR_RETURN_IF_ERROR(proc_->mem().write(addr + kLenBytes, payload));

  SendWr wr;
  wr.wr_id = peer.send_slot;
  wr.opcode = rnic::WrOpcode::send;
  wr.sge = {{addr, kLenBytes + len, peer.send_mr.vlkey}};
  MIGR_RETURN_IF_ERROR(guest_->post_send(peer.vqpn, std::move(wr)));
  if (sli_ != nullptr) {
    if (peer.send_ts.empty()) {
      peer.send_ts.assign(config_.depth, 0);
      peer.send_bytes.assign(config_.depth, 0);
    }
    peer.send_ts[slot] = proc_->loop().now();
    peer.send_bytes[slot] = static_cast<std::uint32_t>(payload.size());
  }
  peer.send_slot++;
  peer.send_credits--;
  sent_++;
  return Status::ok();
}

void MsgNode::arm_output_commit(std::uint64_t epoch) {
  gate_armed_ = true;
  gate_epoch_ = epoch;
  gate_release_mark_ = -1;
}

void MsgNode::disarm_output_commit() {
  // Everything still held becomes releasable; leftover entries (window
  // pressure) keep draining from ticks until the queue is empty.
  gate_release_mark_ = static_cast<std::int64_t>(gate_epoch_);
  drain_gate();
  gate_armed_ = false;
}

void MsgNode::release_through(std::uint64_t epoch) {
  if (static_cast<std::int64_t>(epoch) > gate_release_mark_) {
    gate_release_mark_ = static_cast<std::int64_t>(epoch);
  }
  drain_gate();
}

void MsgNode::resync_window() {
  for (auto& [pid, peer] : peers_) {
    peer.send_credits = config_.depth;
    if (!peer.send_ts.empty()) {
      peer.send_ts.assign(config_.depth, 0);
      peer.send_bytes.assign(config_.depth, 0);
    }
  }
}

std::size_t MsgNode::drop_uncommitted(std::uint64_t committed_epoch) {
  std::size_t dropped = 0;
  while (!gate_q_.empty() && gate_q_.back().epoch > committed_epoch) {
    gate_q_.pop_back();
    dropped++;
  }
  gate_dropped_ += dropped;
  return dropped;
}

void MsgNode::drain_gate() {
  while (!gate_q_.empty() &&
         static_cast<std::int64_t>(gate_q_.front().epoch) <= gate_release_mark_) {
    GatedMsg& m = gate_q_.front();
    const Status st = send_now(m.peer, m.payload);
    if (!st.is_ok()) {
      // Window full (or peer gone mid-failover): retry from the next tick.
      if (st.code() != Errc::resource_exhausted) {
        errors_++;
        gate_q_.pop_front();
        continue;
      }
      return;
    }
    release_delay_.record(proc_->loop().now() - m.enqueued);
    gate_released_++;
    gate_q_.pop_front();
  }
}

void MsgNode::start() {
  if (running_) return;
  running_ = true;
  task_ = proc_->spawn_task(config_.poll_interval, [this] { return tick(); });
}

void MsgNode::stop() {
  running_ = false;
  task_.cancel();
}

void MsgNode::on_migrated(proc::SimProcess& new_proc) {
  proc_ = &new_proc;
  if (running_) {
    task_.cancel();
    task_ = proc_->spawn_task(config_.poll_interval, [this] { return tick(); });
  }
}

MsgNode::Peer* MsgNode::peer_by_vqpn(VQpn vqpn) {
  for (auto& [id, peer] : peers_) {
    if (peer.vqpn == vqpn) return &peer;
  }
  return nullptr;
}

void MsgNode::repost_recv(Peer& peer, std::uint64_t wr_id) {
  RecvWr wr;
  wr.wr_id = wr_id;
  wr.sge = {{peer.recv_buf + (wr_id % config_.depth) * config_.max_msg, config_.max_msg,
             peer.recv_mr.vlkey}};
  if (!guest_->post_recv(peer.vqpn, std::move(wr)).is_ok()) errors_++;
}

void MsgNode::deliver(const Peer& peer, const Cqe& cqe) {
  const std::uint64_t addr = peer.recv_buf + (cqe.wr_id % config_.depth) * config_.max_msg;
  std::uint8_t hdr[kLenBytes];
  if (cqe.byte_len < kLenBytes) {
    errors_++;
    return;
  }
  if (!proc_->mem().read(addr, hdr).is_ok()) return;
  common::ByteReader r{hdr};
  const std::uint32_t len = r.u32().value();
  if (len > cqe.byte_len - kLenBytes) {
    errors_++;
    return;
  }
  rx_payload_.resize(len);
  if (!proc_->mem().read(addr + kLenBytes, rx_payload_).is_ok()) return;
  received_++;
  if (sli_ != nullptr) sli_->delivered(proc_->loop().now(), len);
  GuestId from = 0;
  for (auto& [pid, p] : peers_) {
    if (&p == &peer) from = pid;
  }
  if (handler_) handler_(from, rx_payload_);
}

bool MsgNode::tick() {
  if (!gate_q_.empty()) drain_gate();
  bool polled = false;
  Cqe batch[32];
  for (;;) {
    const int n = guest_->poll_cq(cq_, batch);
    if (n <= 0) break;
    polled = true;
    for (int i = 0; i < n; ++i) {
      const Cqe& cqe = batch[i];
      Peer* peer = peer_by_vqpn(cqe.qpn);
      if (peer == nullptr) continue;  // e.g. completions of extra app QPs
      if (cqe.opcode != CqeOpcode::recv && cqe.opcode != CqeOpcode::send) {
        // One-sided / bind completions: app data traffic on the same CQ,
        // including its failures (the app decides how to react).
        if (raw_handler_) raw_handler_(cqe);
        continue;
      }
      if (cqe.status != CqeStatus::success) {
        errors_++;
        continue;
      }
      if (cqe.opcode == CqeOpcode::recv) {
        deliver(*peer, cqe);
        repost_recv(*peer, peer->next_recv_seq++);
      } else {
        if (sli_ != nullptr && !peer->send_ts.empty()) {
          const std::size_t slot = cqe.wr_id % config_.depth;
          const sim::TimeNs now = proc_->loop().now();
          sli_->rtt(now, now - peer->send_ts[slot]);
          sli_->delivered(now, peer->send_bytes[slot]);
        }
        // Clamped: a completion of a pre-failover WR replayed on a restored
        // QP must not push the window past its depth.
        peer->send_credits = std::min(peer->send_credits + 1, config_.depth);
      }
    }
    if (n < 32) break;
  }
  return polled;
}

}  // namespace migr::apps
