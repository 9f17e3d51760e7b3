#include "apps/perftest.hpp"

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
using rnic::WrOpcode;

PerftestPeer::PerftestPeer(MigrRdmaRuntime& runtime, proc::SimProcess& proc, GuestId id,
                           Role role, PerftestConfig config)
    : runtime_(&runtime), proc_(&proc), id_(id), role_(role), config_(config) {
  guest_ = runtime.create_guest(proc, id).value();
  pd_ = guest_->alloc_pd().value();
  const std::uint32_t cq_cap =
      std::min<std::uint32_t>(config_.num_qps * config_.queue_depth * 2 + 64, 1u << 20);
  cq_ = guest_->create_cq(cq_cap).value();

  slots_.resize(config_.num_qps);
  for (std::uint32_t i = 0; i < config_.num_qps; ++i) {
    QpSlot& slot = slots_[i];
    migrlib::GuestQpAttr attr;
    attr.vpd = pd_;
    attr.vsend_cq = cq_;
    attr.vrecv_cq = cq_;
    attr.caps = {config_.queue_depth + 4, config_.queue_depth + 4};
    slot.vqpn = guest_->create_qp(attr).value();

    // One buffer region per QP, strided by queue depth on both sides so a
    // posted-but-untransmitted message's payload is never overwritten (the
    // application must not touch a buffer it handed to the NIC).
    const std::uint64_t buf_bytes =
        is_two_sided(config_.opcode)
            ? std::uint64_t{config_.msg_size} * config_.queue_depth
            : std::uint64_t{config_.msg_size};
    slot.buf_addr = proc.mem().mmap(buf_bytes, "perftest_buf").value();
    slot.mr = guest_
                  ->reg_mr(pd_, slot.buf_addr, buf_bytes,
                           rnic::kAccessLocalWrite | rnic::kAccessRemoteWrite |
                               rnic::kAccessRemoteRead)
                  .value();
    slot_index_.emplace(slot.vqpn, i);
    if (role_ == Role::sender) {
      // Senders keep extra per-QP bookkeeping arenas (pending-WR tracking,
      // rate state). This is why the paper observes the sender's memory
      // structure is "more complicated than that of the receiver" and its
      // DumpOthers grows faster (§5.2).
      (void)proc.mem().mmap(4096, "perftest_ctx");
    }
  }
  in_ready_.assign(slots_.size(), false);

  stats_source_id_ = obs::Registry::global().register_source(
      "perftest", {{"guest", std::to_string(id_)}}, [this] {
        return std::vector<std::pair<std::string, double>>{
            {"completed_msgs", static_cast<double>(stats_.completed_msgs)},
            {"completed_bytes", static_cast<double>(stats_.completed_bytes)},
            {"recv_msgs", static_cast<double>(stats_.recv_msgs)},
            {"errors", static_cast<double>(stats_.errors)},
            {"order_violations", static_cast<double>(stats_.order_violations)},
            {"content_corruptions", static_cast<double>(stats_.content_corruptions)},
        };
      });
}

PerftestPeer::~PerftestPeer() {
  stop();
  obs::Registry::global().unregister_source(stats_source_id_);
}

Status PerftestPeer::connect_pair(PerftestPeer& a, std::uint32_t a_slot, PerftestPeer& b,
                                  std::uint32_t b_slot) {
  if (a_slot >= a.slots_.size() || b_slot >= b.slots_.size()) {
    return common::err(Errc::invalid_argument, "bad QP slot");
  }
  // Applications pick initial PSNs and exchange them out of band; derive
  // deterministic ones from the slot identities.
  const rnic::Psn psn_a = 10'000 + a_slot * 16;
  const rnic::Psn psn_b = 20'000 + b_slot * 16;
  MIGR_RETURN_IF_ERROR(
      a.guest_->connect_qp(a.slots_[a_slot].vqpn, b.id_, b.slots_[b_slot].vqpn, psn_a, psn_b));
  MIGR_RETURN_IF_ERROR(
      b.guest_->connect_qp(b.slots_[b_slot].vqpn, a.id_, a.slots_[a_slot].vqpn, psn_b, psn_a));
  a.set_remote(a_slot, b.id_, b.remote_buf(b_slot));
  b.set_remote(b_slot, a.id_, a.remote_buf(a_slot));
  return Status::ok();
}

PerftestPeer::RemoteBuf PerftestPeer::remote_buf(std::uint32_t slot) const {
  return RemoteBuf{slots_[slot].buf_addr, slots_[slot].mr.vrkey};
}

void PerftestPeer::set_remote(std::uint32_t slot, GuestId peer, RemoteBuf buf) {
  slots_[slot].peer = peer;
  slots_[slot].remote = buf;
}

void PerftestPeer::start() {
  if (running_) return;
  running_ = true;
  if (role_ == Role::receiver && is_two_sided(config_.opcode)) {
    // Pre-post a full window of RECVs per QP (perftest behaviour).
    for (auto& slot : slots_) {
      for (std::uint32_t d = 0; d < config_.queue_depth; ++d) {
        RecvWr wr;
        wr.wr_id = slot.next_seq++;
        wr.sge = {{slot.buf_addr + std::uint64_t{d % config_.queue_depth} * config_.msg_size,
                   config_.msg_size, slot.mr.vlkey}};
        if (!guest_->post_recv(slot.vqpn, std::move(wr)).is_ok()) stats_.errors++;
      }
    }
  }
  if (role_ == Role::sender) {
    // Initial fill: every QP starts with refill work.
    ready_.clear();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      ready_.push_back(i);
      in_ready_[i] = true;
    }
  }
  task_ = proc_->spawn_task(config_.poll_interval, [this] { return tick(); });
}

void PerftestPeer::stop() {
  running_ = false;
  task_.cancel();
}

bool PerftestPeer::finished() const {
  if (config_.max_messages_per_qp == 0) return false;
  for (const auto& slot : slots_) {
    if (slot.expect_completion < config_.max_messages_per_qp) return false;
  }
  return true;
}

void PerftestPeer::enable_sli(obs::SliHub& hub) {
  sli_ = hub.guest(id_, proc_->loop().now());
  if (sli_ == nullptr) return;  // hub disabled
  hub.set_retransmit_source(id_, proc_->loop().now(),
                            [this] { return guest_->total_retransmits(); });
  for (auto& slot : slots_) slot.post_ts.assign(config_.queue_depth, 0);
}

void PerftestPeer::on_migrated(proc::SimProcess& new_proc) {
  proc_ = &new_proc;
  if (running_) {
    task_.cancel();
    task_ = proc_->spawn_task(config_.poll_interval, [this] { return tick(); });
  }
}

PerftestPeer::QpSlot* PerftestPeer::slot_by_vqpn(VQpn vqpn) {
  auto it = slot_index_.find(vqpn);
  return it == slot_index_.end() ? nullptr : &slots_[it->second];
}

bool PerftestPeer::tick() {
  bool polled = false;
  Cqe batch[64];
  for (;;) {
    const int n = guest_->poll_cq(cq_, batch);
    if (n <= 0) break;
    polled = true;
    for (int i = 0; i < n; ++i) handle_cqe(batch[i]);
    if (n < 64) break;
  }
  if (role_ == Role::sender) {
    // Only QPs whose window drained need refilling.
    for (std::uint32_t idx : ready_) {
      in_ready_[idx] = false;
      pump_sender(slots_[idx]);
    }
    ready_.clear();
  }
  return polled;
}

void PerftestPeer::pump_sender(QpSlot& slot) {
  if (slot.peer == 0) return;
  while (slot.outstanding < config_.queue_depth &&
         (config_.max_messages_per_qp == 0 ||
          slot.next_seq < config_.max_messages_per_qp)) {
    SendWr wr;
    wr.wr_id = slot.next_seq;
    wr.opcode = config_.opcode;
    const std::uint64_t stride =
        is_two_sided(config_.opcode)
            ? std::uint64_t{config_.msg_size} * (slot.next_seq % config_.queue_depth)
            : 0;
    wr.sge = {{slot.buf_addr + stride, config_.msg_size, slot.mr.vlkey}};
    if (config_.verify && config_.msg_size >= 8 && is_two_sided(config_.opcode)) {
      // Stamp the sequence number into the payload (§5.3 extension).
      std::uint64_t seq = slot.next_seq;
      (void)proc_->mem().write(slot.buf_addr + stride,
                               {reinterpret_cast<std::uint8_t*>(&seq), 8});
    }
    if (rnic::is_one_sided(config_.opcode)) {
      wr.remote_addr = slot.remote.addr;
      wr.rkey = slot.remote.vrkey;
    }
    const auto st = guest_->post_send(slot.vqpn, std::move(wr));
    if (!st.is_ok()) {
      if (st.code() != Errc::resource_exhausted) stats_.errors++;
      return;
    }
    if (sli_ != nullptr) {
      if (slot.post_ts.empty()) slot.post_ts.assign(config_.queue_depth, 0);
      slot.post_ts[slot.next_seq % config_.queue_depth] = proc_->loop().now();
    }
    slot.outstanding++;
    slot.next_seq++;
  }
}

void PerftestPeer::handle_cqe(const Cqe& cqe) {
  QpSlot* slot = slot_by_vqpn(cqe.qpn);
  if (slot == nullptr) {
    stats_.errors++;
    return;
  }
  if (cqe.status != CqeStatus::success) {
    stats_.errors++;
    return;
  }
  if (cqe.opcode == CqeOpcode::recv) {
    // §5.3 check: receive completions arrive in WR-ID order, exactly once.
    if (config_.verify && cqe.wr_id != slot->expect_recv) stats_.order_violations++;
    slot->expect_recv = cqe.wr_id + 1;
    if (config_.verify && config_.msg_size >= 8) {
      const std::uint64_t stride =
          std::uint64_t{cqe.wr_id % config_.queue_depth} * config_.msg_size;
      std::uint64_t stamp = 0;
      (void)proc_->mem().read(slot->buf_addr + stride,
                              {reinterpret_cast<std::uint8_t*>(&stamp), 8});
      if (stamp != cqe.wr_id) stats_.content_corruptions++;
    }
    stats_.recv_msgs++;
    // Replenish the RECV window.
    RecvWr wr;
    wr.wr_id = slot->next_seq;
    wr.sge = {{slot->buf_addr +
                   std::uint64_t{slot->next_seq % config_.queue_depth} * config_.msg_size,
               config_.msg_size, slot->mr.vlkey}};
    if (guest_->post_recv(slot->vqpn, std::move(wr)).is_ok()) {
      slot->next_seq++;
    } else {
      stats_.errors++;
    }
    return;
  }
  // Sender-side completion.
  if (config_.verify && cqe.wr_id != slot->expect_completion) stats_.order_violations++;
  slot->expect_completion = cqe.wr_id + 1;
  if (slot->outstanding > 0) slot->outstanding--;
  stats_.completed_msgs++;
  stats_.completed_bytes += config_.msg_size;
  if (sli_ != nullptr && !slot->post_ts.empty()) {
    const sim::TimeNs now = proc_->loop().now();
    sli_->rtt(now, now - slot->post_ts[cqe.wr_id % config_.queue_depth]);
    sli_->delivered(now, config_.msg_size);
  }
  const std::uint32_t idx = slot_index_.at(cqe.qpn);
  if (!in_ready_[idx]) {
    in_ready_[idx] = true;
    ready_.push_back(idx);
  }
}

// ---------------------------------------------------------------------------

ThroughputSampler::ThroughputSampler(sim::EventLoop& loop, const rnic::Device& device,
                                     sim::DurationNs period)
    : loop_(loop), device_(device), period_(period) {}

void ThroughputSampler::start() {
  last_rx_ = device_.counters().rx_bytes;
  last_tx_ = device_.counters().tx_bytes;
  task_ = loop_.schedule_every(period_, [this] {
    const auto& c = device_.counters();
    Sample s;
    s.at = loop_.now();
    s.rx_gbps = static_cast<double>(c.rx_bytes - last_rx_) * 8.0 /
                static_cast<double>(period_);
    s.tx_gbps = static_cast<double>(c.tx_bytes - last_tx_) * 8.0 /
                static_cast<double>(period_);
    last_rx_ = c.rx_bytes;
    last_tx_ = c.tx_bytes;
    samples_.push_back(s);
  });
}

void ThroughputSampler::stop() { task_.cancel(); }

}  // namespace migr::apps
