// perftest: the microbenchmark workload of the paper's §5 evaluation,
// modelled on linux-rdma/perftest's bandwidth tests and carrying the three
// extensions the paper describes (§5.1):
//   * WR-ID sequence stamping for migration-correctness checking (§5.3):
//     every WR's wr_id is a per-QP sequence number; completions must come
//     back in order, exactly once, with intact content.
//   * one-to-many communication patterns (§5.4, Fig. 4c): the migrated
//     container runs one perftest with n QPs while each of n partners runs
//     one QP.
//   * fine-grained throughput sampling via the NIC's port counters (§5.5,
//     Fig. 5): see ThroughputSampler.
//
// A PerftestPeer is a MigratableApp: live migration re-homes its polling
// loop onto the destination process and the traffic continues.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

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

struct PerftestConfig {
  std::uint32_t num_qps = 1;
  std::uint32_t msg_size = 4096;
  std::uint32_t queue_depth = 64;       // best-effort posting window per QP
  rnic::WrOpcode opcode = rnic::WrOpcode::rdma_write;
  bool verify = true;                   // WR-ID ordering + content stamping
  sim::DurationNs poll_interval = sim::usec(1);
  std::uint64_t max_messages_per_qp = 0;  // 0 = unbounded (bandwidth mode)
};

// Registered with the process-wide obs::Registry by each PerftestPeer (as
// "perftest{guest=G}"); the struct stays the accessor API.
struct PerftestStats {
  std::uint64_t completed_msgs = 0;
  std::uint64_t completed_bytes = 0;
  std::uint64_t recv_msgs = 0;
  std::uint64_t errors = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t content_corruptions = 0;
};

class PerftestPeer : public migrlib::MigratableApp {
 public:
  enum class Role { sender, receiver };

  PerftestPeer(MigrRdmaRuntime& runtime, proc::SimProcess& proc, GuestId id,
               Role role, PerftestConfig config);
  ~PerftestPeer() override;

  /// Connect QP slot `my_slot` of this peer to slot `peer_slot` of `other`
  /// (both peers must be constructed first). Pairwise full mesh and
  /// one-to-many patterns are built from this primitive.
  static common::Status connect_pair(PerftestPeer& a, std::uint32_t a_slot,
                                     PerftestPeer& b, std::uint32_t b_slot);

  /// Start the traffic loop (sender posts; receiver reposts RECVs).
  void start();
  void stop();

  GuestContext& guest() noexcept { return *guest_; }
  GuestId id() const noexcept { return id_; }
  const PerftestStats& stats() const noexcept { return stats_; }
  bool finished() const;  // max_messages_per_qp reached on every QP

  /// Remote-side info a sender needs (the receiver's buffer + virtual rkey),
  /// normally exchanged out of band.
  struct RemoteBuf {
    std::uint64_t addr = 0;
    std::uint32_t vrkey = 0;
  };
  RemoteBuf remote_buf(std::uint32_t slot) const;
  void set_remote(std::uint32_t slot, GuestId peer, RemoteBuf buf);

  /// Arm the SLI taps: per-message post -> completion RTT, completed bytes
  /// as goodput, and the guest's retransmit counters. One null-check branch
  /// per message while disarmed.
  void enable_sli(obs::SliHub& hub);

  // MigratableApp:
  void on_migrated(proc::SimProcess& new_proc) override;

 private:
  struct QpSlot {
    VQpn vqpn = 0;
    std::uint64_t buf_addr = 0;
    VMr mr;
    GuestId peer = 0;
    RemoteBuf remote;
    std::uint64_t next_seq = 0;       // wr_id of the next posted WR
    std::uint64_t outstanding = 0;
    std::uint64_t expect_completion = 0;  // next wr_id we must see complete
    std::uint64_t expect_recv = 0;
    // SLI RTT bookkeeping, indexed by wr_id % queue_depth (sized when the
    // taps are armed).
    std::vector<sim::TimeNs> post_ts;
  };

  /// Poll the CQ and refill drained windows; false when it polled no
  /// completion (only completions make refill work).
  bool tick();
  void pump_sender(QpSlot& slot);
  void handle_cqe(const rnic::Cqe& cqe);
  QpSlot* slot_by_vqpn(VQpn vqpn);

  // O(1) CQE-to-slot dispatch and a ready list so a tick touches only QPs
  // with refill work — essential when sweeping to thousands of QPs.
  std::unordered_map<VQpn, std::uint32_t> slot_index_;
  std::vector<std::uint32_t> ready_;
  std::vector<bool> in_ready_;

  MigrRdmaRuntime* runtime_;
  proc::SimProcess* proc_;
  GuestId id_;
  Role role_;
  PerftestConfig config_;
  GuestContext* guest_ = nullptr;
  VHandle pd_ = 0;
  VHandle cq_ = 0;
  std::vector<QpSlot> slots_;
  PerftestStats stats_;
  obs::GuestSli* sli_ = nullptr;  // null = taps disarmed (one branch/msg)
  std::uint64_t stats_source_id_ = 0;
  sim::EventHandle task_;
  bool running_ = false;
};

/// Samples a device's port byte counters at a fixed period (the mlx5
/// ethtool-counter method of §5.5.2) and records throughput in Gbps.
class ThroughputSampler {
 public:
  ThroughputSampler(sim::EventLoop& loop, const rnic::Device& device,
                    sim::DurationNs period = sim::msec(5));
  void start();
  void stop();

  struct Sample {
    sim::TimeNs at = 0;
    double rx_gbps = 0;
    double tx_gbps = 0;
  };
  const std::vector<Sample>& samples() const noexcept { return samples_; }

 private:
  sim::EventLoop& loop_;
  const rnic::Device& device_;
  sim::DurationNs period_;
  std::uint64_t last_rx_ = 0;
  std::uint64_t last_tx_ = 0;
  std::vector<Sample> samples_;
  sim::EventHandle task_;
};

}  // namespace migr::apps
