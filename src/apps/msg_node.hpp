// MsgNode: a small message-passing endpoint over the MigrRDMA guest library
// — RC SEND/RECV with credit-managed buffers and a per-peer QP. This is the
// communication substrate the mini-Hadoop application (and the examples)
// build their RPC on, the way RDMA-Hadoop layers its protocol over verbs.
//
// A MsgNode is a MigratableApp: its polling loop re-homes on migration and
// in-flight messages follow MigrRDMA's interception/replay rules.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "migr/guest_lib.hpp"
#include "migr/migration.hpp"
#include "obs/sli.hpp"

namespace migr::apps {

using migrlib::GuestContext;
using migrlib::GuestId;
using migrlib::MigrRdmaRuntime;
using migrlib::VHandle;
using migrlib::VMr;
using migrlib::VQpn;

struct MsgNodeConfig {
  std::uint32_t depth = 32;          // send/recv window per peer
  std::uint32_t max_msg = 4096;      // bytes per message slot
  sim::DurationNs poll_interval = sim::usec(5);
};

class MsgNode : public migrlib::MigratableApp {
 public:
  /// (from, payload)
  using Handler = std::function<void(GuestId, const common::Bytes&)>;

  MsgNode(MigrRdmaRuntime& runtime, proc::SimProcess& proc, GuestId id,
          MsgNodeConfig config = {});
  ~MsgNode() override;

  static common::Status connect(MsgNode& a, MsgNode& b);

  /// Queue a message to a connected peer. Fails with resource_exhausted
  /// when the send window is full (caller retries on its next tick).
  /// While the output-commit gate is armed, the message is buffered in the
  /// release queue instead of hitting the wire and always succeeds.
  common::Status send(GuestId peer, const common::Bytes& payload);

  // -- Output-commit gate (continuous FT, Remus/COLO semantics) ------------
  // The FT controller arms the gate on a protected primary: every send()
  // buffers tagged with the current checkpoint epoch, and only flushes once
  // the backup ACKs that epoch — so a mid-epoch primary kill is externally
  // invisible. Messages of uncommitted epochs are dropped at failover; the
  // backup resumes from the committed state that never generated them.
  /// Arm the gate; messages buffered from now on belong to `epoch`.
  void arm_output_commit(std::uint64_t epoch);
  /// Disarm and flush everything still held (protection dropped cleanly).
  void disarm_output_commit();
  /// A new checkpoint interval opened: subsequent sends belong to `epoch`.
  void set_output_epoch(std::uint64_t epoch) noexcept { gate_epoch_ = epoch; }
  /// The backup ACKed `epoch`: release every held message it covers. Wire
  /// posting respects send-window credits; leftovers drain on the ticks
  /// that poll the completions returning those credits.
  void release_through(std::uint64_t epoch);
  /// Failover promotion: drop held messages of epochs newer than
  /// `committed_epoch` (never externally visible). Returns the drop count.
  std::size_t drop_uncommitted(std::uint64_t committed_epoch);
  /// Failover promotion: sends in flight at the kill point completed
  /// nowhere — the promoted QP state (captured at the committed epoch) has
  /// no record of them, so their CQEs never arrive and the credits they
  /// hold would leak. Reset every peer window to full and drop the stale
  /// RTT bookkeeping.
  void resync_window();

  bool output_commit_armed() const noexcept { return gate_armed_; }
  std::size_t gated_pending() const noexcept { return gate_q_.size(); }
  std::uint64_t gate_released() const noexcept { return gate_released_; }
  std::uint64_t gate_dropped() const noexcept { return gate_dropped_; }
  /// Hold time (enqueue -> wire post) of released messages: the
  /// output-commit latency tax.
  const obs::Histogram& release_delay() const noexcept { return release_delay_; }

  void set_handler(Handler handler) { handler_ = std::move(handler); }
  /// Completions that are not message traffic (e.g. one-sided data WRs an
  /// application posts on the same QPs/CQ) are forwarded here.
  using RawCqeHandler = std::function<void(const rnic::Cqe&)>;
  void set_raw_cqe_handler(RawCqeHandler handler) { raw_handler_ = std::move(handler); }
  void start();
  void stop();

  GuestContext& guest() noexcept { return *guest_; }
  GuestId id() const noexcept { return id_; }
  proc::SimProcess& process() noexcept { return *proc_; }
  VHandle pd() const noexcept { return pd_; }

  /// The QP connecting to `peer` (for piggybacked one-sided traffic).
  common::Result<VQpn> qp_to(GuestId peer) const;

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t received() const noexcept { return received_; }
  std::uint64_t errors() const noexcept { return errors_; }

  /// Arm the SLI taps: message RTTs (post -> send-CQE; an RC send
  /// completion implies the ack), delivered payload bytes (both
  /// directions), and the guest's retransmit counters. No-op when the hub
  /// is disabled; the armed-but-idle cost is one null-check branch per
  /// message.
  void enable_sli(obs::SliHub& hub);

  void on_migrated(proc::SimProcess& new_proc) override;

 private:
  struct Peer {
    VQpn vqpn = 0;
    std::uint64_t send_buf = 0;
    VMr send_mr;
    std::uint64_t recv_buf = 0;
    VMr recv_mr;
    std::uint32_t send_credits = 0;  // free send slots
    std::uint32_t send_slot = 0;     // next slot index
    std::uint64_t next_recv_seq = 0;
    // SLI RTT bookkeeping, indexed by wr_id % depth (sized when the taps
    // are armed; empty otherwise).
    std::vector<sim::TimeNs> send_ts;
    std::vector<std::uint32_t> send_bytes;
  };

  struct GatedMsg {
    GuestId peer = 0;
    common::Bytes payload;
    std::uint64_t epoch = 0;
    sim::TimeNs enqueued = 0;
  };

  /// Drain the gate and poll the CQ; false when it polled no completion
  /// (gate leftovers wait on the completions that return credits).
  bool tick();
  /// Hand a received message to the handler, read out of its slot into
  /// rx_payload_ (the slot's length word first, then the payload).
  void deliver(const Peer& peer, const rnic::Cqe& cqe);
  void repost_recv(Peer& peer, std::uint64_t wr_id);
  Peer* peer_by_vqpn(VQpn vqpn);
  common::Status send_now(GuestId peer_id, const common::Bytes& payload);
  /// Post released-but-unflushed gate entries while credits allow.
  void drain_gate();

  MigrRdmaRuntime* runtime_;
  proc::SimProcess* proc_;
  GuestId id_;
  MsgNodeConfig config_;
  GuestContext* guest_ = nullptr;
  VHandle pd_ = 0;
  VHandle cq_ = 0;
  static constexpr std::uint32_t kLenBytes = 4;  // a slot's length word
  std::unordered_map<GuestId, Peer> peers_;
  // The payload handed to the handler, reused message to message and
  // reserved for a full slot, so delivery allocates nothing.
  common::Bytes rx_payload_;
  Handler handler_;
  RawCqeHandler raw_handler_;
  sim::EventHandle task_;
  bool running_ = false;
  obs::GuestSli* sli_ = nullptr;  // null = taps disarmed (one branch/msg)
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t errors_ = 0;

  // Output-commit gate state. The queue is epoch-ordered by construction
  // (epochs only move forward); entries up to the release mark drain FIFO.
  std::deque<GatedMsg> gate_q_;
  bool gate_armed_ = false;
  std::uint64_t gate_epoch_ = 0;
  std::int64_t gate_release_mark_ = -1;  // highest ACKed epoch; -1 = none
  std::uint64_t gate_released_ = 0;
  std::uint64_t gate_dropped_ = 0;
  obs::Histogram release_delay_{obs::Histogram::kDefaultExactCapacity};
};

}  // namespace migr::apps
