// The simulated RDMA NIC.
//
// One Device per host, attached to the fabric's data plane. It implements
// the verbs object model (PD / MR / CQ / QP / SRQ / completion channel /
// device ["on-chip"] memory / memory window), an RC transport with MTU
// packetization, cumulative ACKs and go-back-N retransmission, plus UD
// datagrams, one-sided READ/WRITE and ATOMICs executed against the owning
// process's address space (DMA that dirties pages behind the application).
//
// Deliberate design constraint (the premise of the paper): the device
// exposes NO interface to dump or inject the internal transport state of a
// live QP — PSNs, in-flight WQE progress, and responder assembly state are
// private. The only externally visible values are the ones real ibverbs
// exposes (QPNs, keys, CQEs, port counters) plus the driver-level queue
// occupancy counters MigrRDMA's indirection layer shares with its library
// (paper §3.4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/process.hpp"
#include "rnic/cost_model.hpp"
#include "rnic/types.hpp"
#include "rnic/wire.hpp"

namespace migr::rnic {

class Device;
class Context;

struct DeviceConfig {
  std::uint32_t max_qp = 16384;   // "modern RNICs support more than 10K QPs"
  std::uint32_t max_cqe = 1 << 20;
  std::uint32_t max_qp_wr = 16384;
  std::uint64_t device_memory_bytes = 256 * 1024;  // on-chip memory pool
  CostModel costs;
  // NAK-storm anomaly trigger: when this device's responders emit at least
  // `nak_storm_threshold` NAKs within one `nak_storm_window`, the flight
  // recorder (if enabled) dumps the surrounding packet window. 0 disables.
  std::uint32_t nak_storm_threshold = 64;
  sim::DurationNs nak_storm_window = sim::msec(1);
};

// ---------------------------------------------------------------------------
// Verbs objects. Applications hold Handles; the structs live in the Context.
// ---------------------------------------------------------------------------

struct Pd {
  Handle handle = 0;
};

struct Mr {
  Handle handle = 0;
  Handle pd = 0;
  proc::VirtAddr addr = 0;
  std::uint64_t length = 0;
  std::uint32_t access = 0;
  Lkey lkey = 0;  // NIC-assigned, non-dense: differs across devices
  Rkey rkey = 0;
};

struct CompChannel {
  Handle handle = 0;
  std::deque<Handle> pending{};      // CQs with undelivered events
  std::uint64_t events_delivered = 0;
  std::uint64_t events_acked = 0;
};

struct Cq {
  Handle handle = 0;
  common::Ring<Cqe> entries;
  Handle channel = 0;      // 0 = none
  bool armed = false;      // req_notify_cq armed
  bool overflowed = false;

  explicit Cq(std::size_t capacity) : entries(capacity) {}
};

struct Srq {
  Handle handle = 0;
  Handle pd = 0;
  common::Ring<RecvWr> wqes;

  explicit Srq(std::size_t capacity) : wqes(capacity) {}
};

/// On-chip ("device") memory allocation, mapped into the process VA by the
/// driver. Because the mapping is backed by ordinary simulated pages, data
/// written through it flows through migration like any other memory; what is
/// special is only its *allocation* lifecycle (paper Table 1, row 2).
struct DeviceMemory {
  Handle handle = 0;
  std::uint64_t length = 0;
  proc::VirtAddr mapped_at = 0;
};

/// Memory window: a narrower remote-access grant layered over an MR.
struct MemoryWindow {
  Handle handle = 0;
  Handle pd = 0;
  Rkey rkey = 0;  // 0 until bound
  // Bound range:
  Lkey mr_lkey = 0;
  proc::VirtAddr addr = 0;
  std::uint64_t length = 0;
  std::uint32_t access = 0;
};

struct QpInitAttr {
  QpType type = QpType::rc;
  Handle pd = 0;
  Handle send_cq = 0;
  Handle recv_cq = 0;
  Handle srq = 0;  // 0 = none
  QpCaps caps;
};

// Internal send-queue element: the WR plus transmit/ack progress.
struct SendWqe {
  SendWr wr;
  std::uint64_t bytes = 0;     // total payload length
  std::uint32_t npkts = 0;     // packets this WQE occupies in PSN space
  bool psn_assigned = false;
  Psn first_psn = 0;
  std::uint32_t emitted_pkts = 0;   // transmit progress (rewound by go-back-N)
  std::uint64_t resp_received = 0;  // READ: response bytes landed
  bool resp_done = false;           // ATOMIC: response landed
  bool executed = false;            // bind_mw: executed locally
};
static_assert(sizeof(SendWqe) <= 192, "SendWqe outgrew its SQ-slot budget");

struct Qp {
  Qpn qpn = 0;
  QpType type = QpType::rc;
  QpState state = QpState::reset;
  Handle pd = 0;
  Handle send_cq = 0;
  Handle recv_cq = 0;
  Handle srq = 0;
  QpCaps caps;
  Context* ctx = nullptr;

  // RC connection identity.
  net::HostId remote_host = 0;
  Qpn remote_qpn = 0;
  // Fast-path fabric handle for the connection, resolved at RTR (RC only);
  // stable for the fabric's lifetime.
  net::Fabric::Route* route = nullptr;

  // --- requester (send) engine ---
  common::Ring<SendWqe> sq;
  Psn next_psn = 0;        // next unassigned PSN
  Psn acked_psn = 0;       // cumulative: all request pkts with psn < acked_psn are acked
  std::uint64_t emit_cursor = 0;  // absolute SQ index of next WQE to (continue) emitting
  sim::TimeNs last_progress = 0;
  int retries = 0;
  // Lifetime go-back-N rewinds on this QP (retry timer + NAK paths). The
  // per-port counter aggregates across QPs; this one lets per-guest SLI
  // attribution poll retransmits for exactly the QPs a guest owns.
  std::uint64_t retransmits = 0;
  bool in_pump = false;    // queued in the device's transmit scheduler
  // Whether this QP's one retransmit timer is pending. It fires at
  // last_progress + retransmit_timeout, follows that deadline while
  // progress moves it, and lapses once the SQ drains (the next emission
  // arms it again).
  bool rtx_armed = false;
  // One past the highest request PSN ever put on the wire: an emission
  // below it is a retransmitted packet.
  Psn tx_high_psn = 0;
  // RNR wait: after an RNR NAK the requester emits nothing on this QP until
  // kRnrHold has elapsed.
  sim::TimeNs rnr_hold_until = 0;

  // --- responder (receive) engine ---
  common::Ring<RecvWr> rq;
  Psn expected_psn = 0;
  Psn last_nak_psn = static_cast<Psn>(-1);
  // Assembly state for the in-progress inbound SEND message.
  bool recv_active = false;
  RecvWr recv_cur;
  std::uint32_t recv_msg_len = 0;
  std::uint32_t recv_written = 0;
  // Bounded replay cache for idempotent atomic retries.
  std::map<Psn, std::uint64_t> atomic_cache;

  // --- driver-visible accounting (shared with MigrRDMA Lib, §3.4) ---
  // Two-sided verbs posted on this QP since creation, and RECV completions
  // delivered, maintained so wait-before-stop can compare n_sent / n_recv.
  std::uint64_t n_sent = 0;
  std::uint64_t n_recv = 0;
  // Completed (not merely acked) SQ WQEs pop from sq; sq.size() is thus the
  // in-flight send window "capped by the head and tail pointers" (§3.4).

  Qp(const QpCaps& c)
      : caps(c), sq(c.max_send_wr), rq(c.max_recv_wr == 0 ? 1 : c.max_recv_wr) {}
};

struct PortCounters {
  // mlx5 ethtool-style byte counters; Fig. 5 samples these every 5 ms.
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t retransmits = 0;      // go-back-N rewinds
  // What became of every inbound RC request packet (send/write/read/atomic
  // requests; acks and responses are the rest of rx_packets):
  std::uint64_t rx_in_order = 0;      // accepted at the expected PSN
  std::uint64_t rx_duplicate = 0;     // below it: go-back-N replay, re-acked
  std::uint64_t out_of_sequence = 0;  // beyond a PSN gap: dropped
  std::uint64_t rx_rnr_drop = 0;      // at it, but no receive WQE: RNR NAKed
  // Request packets emitted again after a rewind, and RNR NAKs received
  // (each holds the requester for kRnrHold).
  std::uint64_t tx_retransmit_packets = 0;
  std::uint64_t rnr_waits = 0;

  PortCounters& operator+=(const PortCounters& o);
  PortCounters operator-(const PortCounters& o) const;
};

// ---------------------------------------------------------------------------

class Context {
 public:
  Context(Device& dev, proc::SimProcess& proc);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  Device& device() noexcept { return dev_; }
  proc::SimProcess& process() noexcept { return proc_; }

  // ---- control path ----
  common::Result<Handle> alloc_pd();
  common::Status dealloc_pd(Handle pd);

  common::Result<Mr> reg_mr(Handle pd, proc::VirtAddr addr, std::uint64_t length,
                            std::uint32_t access);
  common::Status dereg_mr(Lkey lkey);

  common::Result<Handle> create_comp_channel();
  common::Status destroy_comp_channel(Handle ch);

  common::Result<Handle> create_cq(std::uint32_t capacity, Handle channel = 0);
  common::Status destroy_cq(Handle cq);

  common::Result<Handle> create_srq(Handle pd, std::uint32_t capacity);
  common::Status destroy_srq(Handle srq);

  common::Result<Qpn> create_qp(const QpInitAttr& attr);
  common::Status destroy_qp(Qpn qpn);
  common::Status modify_qp_init(Qpn qpn);
  common::Status modify_qp_rtr(Qpn qpn, net::HostId remote_host, Qpn remote_qpn,
                               Psn expected_psn);
  common::Status modify_qp_rts(Qpn qpn, Psn initial_psn);
  common::Status modify_qp_err(Qpn qpn);
  common::Status modify_qp_reset(Qpn qpn);

  common::Result<DeviceMemory> alloc_dm(std::uint64_t length);
  /// Restore-path variant: account a device-memory allocation against an
  /// already-established process mapping (used when the migration tooling
  /// restored the DM-backed pages before the driver re-allocated the DM).
  common::Result<DeviceMemory> adopt_dm(std::uint64_t length, proc::VirtAddr existing_va);
  common::Status free_dm(Handle dm);

  common::Result<Handle> alloc_mw(Handle pd);
  common::Status dealloc_mw(Handle mw);

  // ---- data path ----
  common::Status post_send(Qpn qpn, SendWr wr);
  common::Status post_recv(Qpn qpn, RecvWr wr);
  common::Status post_srq_recv(Handle srq, RecvWr wr);
  /// Returns the number of CQEs written to `out`.
  int poll_cq(Handle cq, std::span<Cqe> out);
  common::Status req_notify_cq(Handle cq);
  /// Non-blocking get_cq_event: which CQ fired, if any event is pending.
  std::optional<Handle> get_cq_event(Handle channel);
  void ack_cq_events(Handle channel, std::uint32_t n);

  /// Bind a memory window on a QP's send queue (type-2 bind semantics:
  /// ordered with other SQ work, completion reported via the send CQ).
  /// Returns the new rkey.
  common::Result<Rkey> bind_mw(Qpn qpn, Handle mw, Lkey mr_lkey, proc::VirtAddr addr,
                               std::uint64_t length, std::uint32_t access,
                               std::uint64_t wr_id);

  // ---- queries ----
  common::Result<QpState> query_qp_state(Qpn qpn) const;
  const Qp* find_qp(Qpn qpn) const;
  Qp* find_qp_mut(Qpn qpn);
  const Mr* find_mr(Lkey lkey) const;
  const Srq* find_srq(Handle h) const;
  const Cq* find_cq(Handle h) const;
  Cq* find_cq_mut(Handle h);

  /// Async affiliated events (QP moved to error by transport failure).
  using AsyncEventHandler = std::function<void(Qpn)>;
  void set_qp_error_handler(AsyncEventHandler fn) { qp_error_handler_ = std::move(fn); }

  /// One-shot hook fired on the next CQE delivered to ANY CQ of this
  /// context, then discarded. The blackout profiler uses it to timestamp the
  /// first post-resume completion (the moment the migrated guest observably
  /// makes progress again) without polling.
  void watch_next_cqe(std::function<void()> fn) { next_cqe_watch_ = std::move(fn); }

  /// Total accumulated control-path cost (what a caller measuring wall time
  /// of setup code would have waited for). The migration orchestrator reads
  /// and resets this to convert the synchronous sim API into elapsed time.
  sim::DurationNs take_ctrl_cost() {
    auto c = ctrl_cost_;
    ctrl_cost_ = 0;
    return c;
  }

 private:
  friend class Device;

  void charge(sim::DurationNs cost);
  void push_cqe(Handle cq_handle, Cqe cqe);

  Device& dev_;
  proc::SimProcess& proc_;
  Handle next_handle_ = 1;

  std::unordered_map<Handle, Pd> pds_;
  std::unordered_map<Lkey, Mr> mrs_;  // keyed by lkey
  std::unordered_map<Handle, std::unique_ptr<Cq>> cqs_;
  std::unordered_map<Handle, CompChannel> channels_;
  std::unordered_map<Handle, std::unique_ptr<Srq>> srqs_;
  std::unordered_map<Qpn, std::unique_ptr<Qp>> qps_;
  std::unordered_map<Handle, DeviceMemory> dms_;
  std::unordered_map<Handle, MemoryWindow> mws_;

  AsyncEventHandler qp_error_handler_;
  std::function<void()> next_cqe_watch_;
  sim::DurationNs ctrl_cost_ = 0;
};

// ---------------------------------------------------------------------------

class Device {
 public:
  Device(sim::EventLoop& loop, net::Fabric& fabric, net::HostId host,
         DeviceConfig config = {}, std::uint64_t seed = 7);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  common::Result<Context*> open(proc::SimProcess& proc);
  void close(Context* ctx);

  net::HostId host() const noexcept { return host_; }
  const DeviceConfig& config() const noexcept { return config_; }
  const CostModel& costs() const noexcept { return config_.costs; }
  sim::EventLoop& loop() noexcept { return loop_; }
  net::Fabric& fabric() noexcept { return fabric_; }

  const PortCounters& counters() const noexcept { return counters_; }

  /// Control-path pressure window: while the NIC's command interface is
  /// busy (e.g. a partner pre-establishing hundreds of QPs during partial
  /// restore), the data path pays a small contention penalty — the effect
  /// Kong et al. measured and Fig. 5 shows as brownout dips.
  void add_ctrl_pressure(sim::DurationNs duration);
  bool under_ctrl_pressure() const { return loop_.now() < ctrl_pressure_until_; }
  sim::TimeNs ctrl_pressure_until() const noexcept { return ctrl_pressure_until_; }

  std::uint32_t qp_count() const noexcept { return static_cast<std::uint32_t>(qp_routes_.size()); }
  /// First QPN this device hands out (the driver knows its own allocation
  /// base; MigrRDMA's indirection layer indexes its translation array from
  /// it).
  Qpn qpn_base() const noexcept { return qpn_base_; }
  std::uint64_t device_memory_free() const noexcept { return dm_free_; }

  /// Stuck-QP audit: RC QPs in RTS that hold PSN-assigned unacked work and
  /// have made no progress for at least `stale_after`. A healthy requester
  /// keeps a retransmit timer alive for such QPs, so they either complete
  /// or flush to error — the fault-injection property tests drain the loop
  /// and assert this comes back empty.
  std::vector<Qpn> audit_stuck_qps(sim::DurationNs stale_after) const;

 private:
  friend class Context;

  Qpn alloc_qpn();
  std::uint32_t alloc_key();

  // Packet handling (responder + requester ack processing).
  void handle_packet(net::Packet&& raw);
  void on_request(Qp& qp, WirePacket& pkt);
  void on_request_read(Qp& qp, const WirePacket& pkt);
  void reply_remote_error(Qp& qp);
  void on_ack(Qp& qp, const WirePacket& pkt);
  void on_read_resp(Qp& qp, WirePacket& pkt);
  void on_atomic_resp(Qp& qp, WirePacket& pkt);
  void send_ack(Qp& qp);
  void send_nak(Qp& qp, bool rnr = false);
  // Requester side of an RNR NAK: hold the QP for kRnrHold, then re-kick it.
  void hold_for_rnr(Qp& qp);
  bool rnr_held(const Qp& qp) const { return loop_.now() < qp.rnr_hold_until; }
  // Classify an emitted request packet as first transmission or retransmit.
  void note_request_tx(Qp& qp, Psn psn);

  // Remote-key validation across every context on this device.
  struct RkeyTarget {
    Context* ctx = nullptr;
    proc::VirtAddr addr = 0;
    std::uint64_t length = 0;
    std::uint32_t access = 0;
    Handle pd = 0;
  };
  const RkeyTarget* find_rkey(Rkey rkey) const;

  // Transmit scheduler: round-robin over QPs with pending work, one packet
  // per slot (a burst for a QP alone in the rotation), paced by the port's
  // serialization rate.
  void kick(Qp& qp);
  void pump();
  void schedule_pump(sim::TimeNs at);
  // The one emission routine: executes the binds at the SQ cursor, then
  // transmits up to `budget` packets of the next WQE that has packets left,
  // never crossing into the WQE after it. Returns true if a packet left.
  bool emit_packets(Qp& qp, std::uint32_t budget);
  // The next packet of SEND/WRITE `wqe` into `pkt`, its payload DMA-read
  // into a block of its own. False on a local protection fault (the caller
  // flushes the QP).
  bool build_payload_packet(Qp& qp, SendWqe& wqe, WirePacket& pkt);
  // Frame a wire packet for the fabric, counting it as transmitted.
  net::Packet frame(WirePacket&& pkt, net::HostId dst);
  void transmit(WirePacket pkt, net::HostId dst, net::Fabric::Route* route);

  // Rolls the NAK-storm window and fires the flight-recorder dump when the
  // threshold trips (then re-arms on a fresh window).
  void note_nak_for_storm(const Qp& qp);

  // Every send completion is built here. A success completes only a
  // signaled WR; an error completes every WR.
  void complete_send(Qp& qp, const SendWqe& w, CqeStatus status);
  void complete_head_wqes(Qp& qp);
  // Moves the QP to error and flushes both queues. Every send WQE completes
  // wr_flush_err except `culprit` (an absolute SQ index; kNoWqe for none),
  // the one the error is about, which completes `reason`. `notify` calls
  // the QP error handler.
  static constexpr std::uint64_t kNoWqe = ~std::uint64_t{0};
  void flush_qp(Qp& qp, bool notify, std::uint64_t culprit = kNoWqe,
                CqeStatus reason = CqeStatus::wr_flush_err);
  // A READ or atomic response that cannot land in the local buffer of WQE
  // `wqe` (an absolute SQ index): the WQEs ahead complete as the response's
  // implied ACK allows, the failed one with a local protection error, and
  // the QP flushes to error.
  void fail_landing(Qp& qp, std::uint64_t wqe);
  void arm_retransmit_timer(Qp& qp);
  void on_retransmit_timer(Qpn qpn);
  // Completes a consumed receive WQE with a local protection error (a
  // message too long for it, or a buffer that went away).
  void fail_recv(Qp& qp, const RecvWr& wr);
  void deliver_recv_cqe(Qp& qp, const RecvWr& wr, std::uint32_t byte_len, bool has_imm,
                        std::uint32_t imm, Qpn src_qp, CqeOpcode op = CqeOpcode::recv);
  common::Status dma_read(Context& ctx, std::span<const Sge> sge, std::uint64_t offset,
                          std::span<std::uint8_t> out);
  // Lands a payload through the SGE list. A payload that lands whole in
  // one SGE goes to AddressSpace::write by rvalue, which may take its block
  // instead of copying it.
  common::Status dma_write(Context& ctx, std::span<const Sge> sge, std::uint64_t offset,
                           common::PayloadRef&& in);
  common::Status validate_sges(Context& ctx, std::span<const Sge> sge, bool need_write);

  sim::EventLoop& loop_;
  net::Fabric& fabric_;
  net::HostId host_;
  DeviceConfig config_;
  common::Rng rng_;

  std::vector<std::unique_ptr<Context>> contexts_;
  // Device-wide QPN routing (QPNs are unique per device).
  std::unordered_map<Qpn, Qp*> qp_routes_;
  std::unordered_map<Rkey, RkeyTarget> rkeys_;

  Qpn next_qpn_;
  Qpn qpn_base_ = 0;
  std::uint32_t key_salt_;
  std::uint32_t next_key_index_ = 1;

  // GrowRing, not deque: the rotation pops and re-pushes constantly, and a
  // deque allocates a fresh chunk every ~128 such cycles in steady state.
  common::GrowRing<Qpn> pump_queue_;
  bool pump_scheduled_ = false;
  // Cached pointer to this port's egress clock (no hash lookup per pump).
  const sim::TimeNs* egress_clock_ = nullptr;
  std::uint64_t dm_free_;
  sim::TimeNs ctrl_pressure_until_ = 0;
  sim::TimeNs nak_window_start_ = 0;
  std::uint32_t nak_window_count_ = 0;

  PortCounters counters_;

  // Telemetry: registry instruments resolved once at construction (labelled
  // host=<h>) so data-path increments are plain adds, plus trace instants
  // for QP state transitions.
  struct Metrics {
    obs::Counter* wqe_posted = nullptr;        // send-side WQEs accepted
    obs::Counter* recv_posted = nullptr;       // RQ/SRQ WQEs accepted
    obs::Counter* cqe_delivered = nullptr;
    obs::Counter* retransmits = nullptr;       // go-back-N rewinds
    obs::Counter* nak_tx = nullptr;            // PSN NAKs sent by responders
    obs::Counter* out_of_sequence = nullptr;   // PSN gap events observed
    obs::Counter* qp_to_init = nullptr;
    obs::Counter* qp_to_rtr = nullptr;
    obs::Counter* qp_to_rts = nullptr;
    obs::Counter* qp_to_err = nullptr;
    obs::Counter* qp_to_reset = nullptr;
  };
  Metrics metrics_;
  std::uint64_t port_source_id_ = 0;

  void note_qp_transition(Qpn qpn, QpState to);
};

}  // namespace migr::rnic
