// Continuous fault tolerance: COLO/Remus-style micro-checkpointing with
// output commit, and failover promotion of a replicated guest.
//
// The FtController drives the same GuestMove as a migration
// (migr/move.hpp), held open as a protection mode:
//
//   protect:   full-image sync to a standby host (memory pre-dump + RDMA
//              pre-dump, through a TransferMux on the ctrl plane), then
//              RDMA pre-setup and partner replacement-QP pre-establishment
//              on the backup — the same off-blackout-path trick migration
//              pre-setup uses, held armed for the guest's whole protected
//              lifetime.
//   epochs:    periodic micro-checkpoints — brief freeze, epoch-scoped
//              incremental dump (pages dirtied since the last epoch) plus
//              the cumulative RDMA delta vs the protect-time image — shipped
//              through the same mux in fixed-size chunks and applied
//              atomically on the backup only once every chunk of the epoch
//              arrived (a partial epoch never contaminates the promotable
//              state).
//   output
//   commit:    while protected, the guest's egress buffers in the MsgNode
//              release queue tagged with the current epoch and flushes only
//              when the covering epoch is ACKed — a mid-epoch primary kill
//              is externally invisible (Remus/COLO semantics).
//   failover:  heartbeat watchdog detects primary death (partition and/or
//              process kill), the backup claims the guest with the
//              exactly-once GuestDirectory::takeover CAS, finishes the
//              staged restore, re-arms QPs (partners switch to the
//              pre-established replacements), drops uncommitted egress and
//              releases the committed backlog. The blackout is attributed
//              by a gap-free waterfall (detect/promote/restore/re_arm/
//              recovery) with the same tiling invariant as
//              MigrationReport.waterfall.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/msg_node.hpp"
#include "criu/dirtyrate.hpp"
#include "migr/migration.hpp"
#include "migr/move.hpp"
#include "obs/critical_path.hpp"

namespace migr::ft {

using migrlib::GuestId;

struct FtOptions {
  // Checkpoint cadence: the gap between an epoch's commit and the next
  // capture. With epoch_byte_budget > 0 the interval adapts per epoch from
  // the sampled dirty rate (budget_epoch_interval), so write-heavy guests
  // checkpoint more often and quiet guests stop paying for near-empty
  // epochs.
  sim::DurationNs epoch_interval = sim::msec(5);
  std::uint64_t epoch_byte_budget = 0;  // 0 = fixed interval

  // Chunk geometry of the epoch-sync TransferMux (the mc-rdma idiom:
  // bounded buffers, fixed-size chunks, last chunk short).
  std::uint64_t chunk_bytes = 2ull << 20;

  // Epoch ACK deadline + bounded re-sends on top of the mux's per-chunk
  // retries. Exhaustion drops protection, never the guest. The doubling
  // backoff is capped at migrlib::kMaxTransferBackoff.
  sim::DurationNs transfer_timeout = sim::sec(1);
  int max_transfer_retries = 3;
  sim::DurationNs transfer_retry_backoff = sim::msec(50);  // doubles per retry

  // Epoch streams: the sync's chunks round-robin over `xfer_streams`
  // unpaced ctrl streams (`ft.xfer.<id>.<instance>.<k>`), with per-chunk
  // ack/retry *beneath* the epoch-level ACK that drives output commit.
  std::uint32_t xfer_streams = 1;

  // Failure detection: primary-side agent heartbeats, backup-side watchdog.
  sim::DurationNs heartbeat_interval = sim::msec(5);
  int missed_heartbeats = 3;

  // Record causal critical-path intervals and attribute the failover
  // blackout [killed_at, resume_at] to edge classes (DESIGN.md §16). Off by
  // default: the default-config artifact stream stays byte-identical.
  bool critical_path = false;

  criu::CriuCosts criu_costs;
};

/// Adaptive epoch cadence: the interval over which a guest dirtying
/// `dirty_bytes_per_sec` fills `budget` bytes, clamped to [2 ms, 50 ms];
/// 50 ms for a guest that dirties nothing.
sim::DurationNs budget_epoch_interval(std::uint64_t budget, double dirty_bytes_per_sec);

/// One committed (or in-flight) micro-checkpoint epoch. Epoch 0 is the full
/// sync; epochs >= 1 are incremental.
struct EpochRecord {
  std::uint64_t epoch = 0;
  sim::TimeNs captured_at = 0;   // freeze start on the primary
  sim::TimeNs committed_at = 0;  // ACK received on the primary (0 = never)
  sim::DurationNs freeze_ns = 0;  // primary pause for the capture
  std::uint64_t mem_bytes = 0;    // serialized memory image + pages
  std::uint64_t rdma_bytes = 0;   // serialized RDMA delta
  std::uint64_t wire_bytes = 0;   // first-attempt bytes on the fabric
  std::uint64_t released_msgs = 0;  // egress flushed by this epoch's commit
  int retries = 0;

  sim::DurationNs commit_latency() const {
    return committed_at == 0 ? -1 : committed_at - captured_at;
  }
};

struct FtReport {
  bool ok = false;
  std::string error;

  GuestId guest = 0;
  net::HostId primary_host = 0;
  net::HostId backup_host = 0;

  sim::TimeNs protect_start = 0;
  sim::TimeNs protected_at = 0;  // full sync committed, output commit armed
  sim::TimeNs end = 0;

  std::uint64_t epochs_captured = 0;   // includes the full sync
  std::uint64_t epochs_committed = 0;  // ACKed on the primary
  std::uint64_t full_sync_bytes = 0;
  std::uint64_t epoch_bytes_total = 0;  // sum of records[i].wire_bytes, i >= 1
  std::uint64_t xfer_bytes_attempted = 0;
  std::uint64_t xfer_bytes_delivered = 0;
  std::uint64_t transfer_retries = 0;  // epoch-level (ACK-deadline) re-sends
  // Stream-level rollups of the epoch-sync mux. attempted == delivered +
  // lost holds per stream and in total once the fabric quiesces.
  std::uint32_t xfer_streams = 0;
  std::uint64_t xfer_bytes_lost = 0;
  std::uint64_t xfer_chunks = 0;
  std::vector<migrlib::XferStreamStats> xfer_stream_stats;
  std::vector<EpochRecord> epochs;

  // Output-commit accounting (mirrors the MsgNode gate counters at end).
  std::uint64_t msgs_buffered = 0;
  std::uint64_t msgs_released = 0;
  std::uint64_t msgs_dropped = 0;  // uncommitted-epoch egress at failover
  // Hold time (enqueue -> wire) of released messages: the output-commit tax.
  std::int64_t release_delay_p50 = 0;
  std::int64_t release_delay_p99 = 0;
  std::int64_t release_delay_max = 0;

  // Failover outcome.
  bool failed_over = false;
  sim::TimeNs killed_at = 0;    // primary death (kill_primary marker)
  sim::TimeNs detected_at = 0;  // watchdog fired on the backup
  sim::TimeNs resume_at = 0;    // service live on the backup
  std::uint64_t promoted_epoch = 0;  // backup state the service resumed from
  std::string failover_reason;

  // Gap-free failover blackout waterfall: slices tile [killed_at,
  // resume_at] exactly, same invariant as MigrationReport.waterfall.
  std::vector<migrlib::PhaseSlice> waterfall;

  // Edge-class attribution of the failover blackout (valid only when
  // FtOptions::critical_path was set and a failover completed). Tiling:
  // sum(edges) == failover_blackout() by construction.
  obs::CriticalPath critical_path;

  sim::DurationNs failover_blackout() const { return resume_at - killed_at; }
  sim::DurationNs waterfall_total() const {
    sim::DurationNs t = 0;
    for (const auto& s : waterfall) t += s.dur;
    return t;
  }

  /// The versioned ft_report artifact body: {"kind":"ft_report",
  /// "version":1,...}. Deterministic given a deterministic run — the
  /// determinism guard diffs this byte-for-byte across seeded runs.
  void write(common::Json& j) const;
  std::string json() const { return common::to_json(*this); }
};

class FtController {
 public:
  FtController(sim::EventLoop& loop, net::Fabric& fabric, migrlib::GuestDirectory& directory,
               FtOptions options = {});
  ~FtController();
  FtController(const FtController&) = delete;
  FtController& operator=(const FtController&) = delete;

  using DoneCb = std::function<void(const FtReport&)>;
  using ReadyCb = std::function<void(const common::Status&)>;

  /// Arm continuous protection for guest `id`: full-image sync to
  /// `backup_host` (restoring into `backup_proc`), then periodic epochs.
  /// `node` is the guest's message endpoint — its output-commit gate is
  /// armed once the sync commits. `ready` fires at that point; `done` fires
  /// when protection ends (failover completed, unprotect, or failure).
  common::Status protect(GuestId id, net::HostId backup_host, proc::SimProcess& backup_proc,
                         migrlib::MigratableApp* app, apps::MsgNode* node, ReadyCb ready,
                         DoneCb done);

  /// Drop protection cleanly: stop epochs, flush the release queue, leave
  /// the guest running on the primary, and release the standby's staged
  /// RDMA state and the partners' prepared QPs. `done` fires with the
  /// report.
  void unprotect();

  /// Kill the primary: partition its host off the fabric (node-failure
  /// model) and kill the container process. The backup watchdog detects the
  /// silence and promotes. Callers driving faults through a FaultPlan
  /// partition instead should kill the process themselves and call
  /// mark_primary_killed() so the blackout waterfall anchors at the true
  /// death time.
  void kill_primary();
  void mark_primary_killed();

  bool is_protected() const noexcept { return protected_; }
  std::uint64_t committed_epoch() const noexcept { return committed_epoch_; }
  const FtReport& report() const noexcept { return report_; }

 private:
  void fail(const common::Status& st);
  /// Shared by fail() and unprotect(): stop the timers and the mux, undo
  /// what the move staged or release what it switched, and flush the
  /// output-commit gate.
  void end_protection();
  void finish_report();
  void stop_timers();
  EpochRecord* record(std::uint64_t epoch);

  // Primary side.
  void phase_full_sync();
  void capture_epoch();
  void send_epoch(std::uint64_t epoch, bool retry);
  void on_ack_timeout(std::uint64_t epoch);
  void on_ack(std::uint64_t epoch);
  void send_heartbeat();
  sim::DurationNs next_epoch_interval();

  // Backup side.
  void on_mux_epoch(common::Bytes&& frame);
  /// Epoch 0 stages the full sync and pre-establishes the partners' QPs;
  /// later epochs merge into the staged restore.
  common::Result<sim::DurationNs> apply_image(std::uint64_t epoch, migrlib::Section payload);
  void watchdog_check();
  void trigger_failover(const std::string& reason);
  void phase_promote();
  void phase_ft_resume(std::uint64_t released, std::uint64_t dropped);

  sim::EventLoop& loop_;
  net::Fabric& fabric_;
  migrlib::GuestDirectory& directory_;
  FtOptions options_;
  // Primary = source, backup = destination. Its mux carries the epoch sync
  // (FtOptions::xfer_streams); its critical-path recorder is armed by
  // FtOptions::critical_path.
  migrlib::GuestMove move_;

  migrlib::MigratableApp* app_ = nullptr;
  apps::MsgNode* node_ = nullptr;
  ReadyCb ready_;
  DoneCb done_;

  std::unique_ptr<criu::DirtyRateEstimator> estimator_;
  common::Bytes last_rdma_delta_;  // backup: cumulative delta of the last applied epoch

  std::string ack_service_;
  std::string hb_service_;
  bool services_registered_ = false;

  bool protected_ = false;
  bool failed_over_ = false;
  bool finished_ = false;
  std::uint64_t next_epoch_ = 0;      // primary: next epoch to capture
  std::uint64_t committed_epoch_ = 0;  // primary: highest ACKed epoch
  std::uint64_t applied_epoch_ = 0;    // backup: highest fully-applied epoch
  bool any_applied_ = false;
  common::Bytes inflight_payload_;     // retained for epoch re-sends
  std::uint64_t inflight_epoch_ = 0;
  bool inflight_ = false;
  int xfer_attempt_ = 0;

  sim::EventHandle epoch_timer_;
  sim::EventHandle hb_timer_;
  sim::EventHandle watchdog_timer_;
  sim::EventHandle ack_timeout_;
  sim::TimeNs last_hb_ = 0;

  FtReport report_;
};

}  // namespace migr::ft
