// The migration controller: the runc-analogue that sequences the full
// MigrRDMA live-migration workflow of Fig. 2(b) on the simulated cluster.
//
//   pre-copy:       1  memory pre-dump + copy        1' RDMA pre-dump + copy
//                   2  partial restore (staging)     2' RDMA pre-setup +
//                                                        partner QP pre-setup
//                   (iterative dirty-page rounds until convergence)
//   stop-and-copy:  3  raise suspension flags  ->  wait-before-stop
//                   4  freeze the service
//                   5  dump memory diff              5' dump RDMA diff+residue
//                   6  final restore iteration       6' map new RDMA resources
//                   7  replay intercepted/pending WRs, partners switch QPs
//                   (source reclaims its resources)
//
// The controller also implements the §4 comparison baseline: the same
// workflow without RDMA pre-setup, where the single RDMA dump and the whole
// RDMA restoration sit inside the blackout window (Fig. 3's "w/o pre-setup").
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "criu/checkpoint.hpp"
#include "criu/dirtyrate.hpp"
#include "criu/pagedelta.hpp"
#include "migr/move.hpp"
#include "migr/postcopy.hpp"
#include "obs/sli.hpp"

namespace migr::migrlib {

/// precopy: iterate dirty rounds, then stop-and-copy everything (§2.2).
/// postcopy: one pre-copy pass, then commit and resume on the destination
/// with the remaining pages marked missing; they fault back on demand via
/// simulated RDMA READs plus a background prefetch stream.
enum class MigrationMode : std::uint8_t { precopy, postcopy };

const char* migration_mode_name(MigrationMode m) noexcept;

/// Ceiling on a doubling transfer-retry backoff, shared by migration's
/// per-chunk policy and FT's epoch-level re-sends: a many-retry transfer on
/// a lossy link must not back off past its deadline (50/100/200 ms at the
/// default budget).
inline constexpr sim::DurationNs kMaxTransferBackoff = sim::msec(500);

struct MigrationOptions {
  MigrationMode mode = MigrationMode::precopy;
  bool pre_setup = true;            // RDMA pre-setup during partial restore (§3.2)
  int max_precopy_rounds = 3;       // dirty-page iterations after the full copy
  std::size_t dirty_page_threshold = 64;  // stop iterating below this many pages
  // Adaptive pre-copy (default off; default runs stay byte-identical): a
  // sampled dirty-page-rate estimator drives a convergence predictor — keep
  // iterating only while a round drains the dirty set faster than the guest
  // refills it, stepping the auto-converge throttle when it diverges.
  bool adaptive_precopy = false;
  // Auto-converge actuator: called with the current throttle factor
  // (0 = full speed). The cluster layer points this at the guest's traffic
  // and dirty generators; unset means the predictor can only stop early.
  std::function<void(double)> throttle;
  sim::DurationNs wbs_timeout = sim::sec(5);  // §3.4 buggy-network upper bound
  // Adversarial-network handling: the per-chunk policy of the TransferMux
  // that carries every image transfer (pre-copy rounds, the final diff and
  // post-copy pages). Each chunk gets a deadline from the moment it left the
  // source port and bounded re-sends with doubling backoff, capped at
  // kMaxTransferBackoff; exhaustion aborts the migration and rolls the
  // source back.
  sim::DurationNs transfer_timeout = sim::sec(1);
  int max_transfer_retries = 3;                  // re-sends after the first attempt
  sim::DurationNs transfer_retry_backoff = sim::msec(50);  // doubles per retry
  // Multifd-style transfer geometry (DESIGN.md §15): the mux splits each
  // payload into `xfer_chunk_bytes` chunks round-robined over `xfer_streams`
  // ctrl streams. `xfer_stream_gbps` models the per-stream processing
  // ceiling that motivates multifd: one stream cannot saturate the link, N
  // streams aggregate toward line rate (0 = unpaced, line rate).
  std::uint32_t xfer_streams = 1;
  double xfer_stream_gbps = 0.0;
  std::uint64_t xfer_chunk_bytes = 256 * 1024;
  // Zero/delta-page suppression in the pre-copy loop (off by default): zero
  // pages and unchanged pages ship a marker, small diffs ship XOR-sparse
  // runs against the previous round's shipped content.
  bool suppress_pages = false;
  // WBS-timeout policy: false = §3.4 forced stop-and-copy (harvest in-flight
  // WRs for replay); true = treat the timeout as fatal and abort/roll back.
  bool abort_on_wbs_timeout = false;
  // Blackout critical-path attribution (DESIGN.md §16, off by default):
  // record causal intervals during the blackout window and resolve them into
  // report.critical_path. Collection never touches the simulation timeline,
  // so default runs stay byte-identical.
  bool critical_path = false;
  criu::CriuCosts criu_costs;
};

struct MigrationReport {
  bool ok = false;
  std::string error;

  // Abort/rollback outcome: the migration was cancelled before the commit
  // point (source release), all staged destination resources were reclaimed,
  // and the service keeps running on the source.
  bool aborted = false;
  std::string abort_reason;
  std::string abort_phase;
  bool source_resumed = false;     // source service running again after abort
  std::uint64_t transfer_retries = 0;  // image chunk re-sends

  MigrationMode mode = MigrationMode::precopy;

  // Simulated timestamps of the phase boundaries. `start` and `end` bracket
  // the whole run and are set on every outcome (success, failure, abort), so
  // schedulers and benches read wall-up/wall-down from the report instead of
  // bracketing runs manually.
  sim::TimeNs start = 0;
  sim::TimeNs end = 0;          // done-callback time (terminal for this attempt)
  sim::TimeNs suspend_at = 0;   // suspension flags raised (comm blackout begins)
  sim::TimeNs freeze_at = 0;    // service frozen (service blackout begins)
  sim::TimeNs resume_at = 0;    // service running on the destination

  // Blackout breakdown (Fig. 3 components).
  sim::DurationNs dump_rdma = 0;
  sim::DurationNs dump_others = 0;
  sim::DurationNs transfer = 0;
  sim::DurationNs restore_rdma = 0;   // in-blackout RDMA restoration
  sim::DurationNs full_restore = 0;

  // RDMA restoration performed during pre-copy (pre-setup case): brownout,
  // not blackout.
  sim::DurationNs presetup_restore_rdma = 0;

  sim::DurationNs wbs_elapsed = 0;  // Fig. 4
  bool wbs_timed_out = false;

  // A pre-copy round (and its bytes) counts only once its image has been
  // applied on the destination; an abort mid-transfer leaves the interrupted
  // round out of both. The attempted/delivered pair accounts what actually
  // crossed the fabric: `attempted` includes every re-send, `delivered`
  // only what arrived, so the two diverge by lost/aborted attempts.
  std::uint64_t precopy_rounds = 0;
  std::uint64_t precopy_bytes = 0;  // delivered-and-applied pre-copy image bytes
  std::uint64_t final_bytes = 0;
  std::uint64_t xfer_bytes_attempted = 0;
  std::uint64_t xfer_bytes_delivered = 0;

  // TransferMux rollups. Balance invariants (pinned by
  // tools/validate_artifacts.py): attempted == delivered + lost, per stream
  // and in total; raw == shipped + suppressed.
  std::uint32_t xfer_streams = 0;
  std::uint64_t xfer_bytes_lost = 0;
  std::uint64_t xfer_chunks = 0;          // mux frames sent, incl. re-sends
  std::vector<XferStreamStats> xfer_stream_stats;

  // Pre-copy page suppression accounting (zero when suppress_pages is off).
  std::uint64_t xfer_pages_zero = 0;
  std::uint64_t xfer_pages_same = 0;
  std::uint64_t xfer_pages_delta = 0;
  std::uint64_t xfer_pages_full = 0;
  std::uint64_t xfer_bytes_raw = 0;        // page content the dirty sets were worth
  std::uint64_t xfer_bytes_shipped = 0;    // page content that went on the wire
  std::uint64_t xfer_bytes_suppressed = 0; // raw - shipped

  // Why pre-copy stopped iterating: "max_rounds", "bytes_threshold" (the
  // pending dirty set fell to dirty_page_threshold pages), "diverging"
  // (predictor gave up), or "postcopy" (single-pass mode).
  std::string stop_reason;
  double dirty_pages_per_sec = 0;  // estimator EWMA at stop (0 = disabled)
  int autoconverge_steps = 0;      // throttle escalations applied
  double throttle_factor = 0;      // strongest throttle reached

  // Post-copy drain accounting; enabled=false on pre-copy migrations.
  PostcopyStats postcopy;

  // Brownout attribution from the SLI pipeline: what the migration cost the
  // *running* service (goodput loss, per-iteration p99 inflation, recovery
  // time). `brownout.valid` is false when the SLI hub was disabled or the
  // guest never armed its taps. Recovery completes after the report is
  // emitted; re-query SliHub::attribution() for the final recovery_ns.
  obs::BrownoutAttribution brownout;

  // Blackout waterfall: gap-free attribution of [freeze_at, resume_at].
  // Empty when the migration never froze the service (e.g. early abort).
  // An aborted-after-freeze migration ends with an "aborted_in_<phase>"
  // slice covering freeze-to-thaw, so the invariant holds on every outcome
  // that has a blackout window.
  std::vector<PhaseSlice> waterfall;

  // Causal critical-path attribution of the same window (DESIGN.md §16).
  // valid only when MigrationOptions::critical_path was set and the service
  // froze; its edges tile [freeze_at, resume_at] exactly.
  obs::CriticalPath critical_path;

  sim::DurationNs duration() const { return end - start; }
  sim::DurationNs service_blackout() const { return resume_at - freeze_at; }
  sim::DurationNs comm_blackout() const { return resume_at - suspend_at; }
  sim::DurationNs blackout_components() const {
    return dump_rdma + dump_others + transfer + restore_rdma + full_restore;
  }
  sim::DurationNs waterfall_total() const {
    sim::DurationNs t = 0;
    for (const auto& s : waterfall) t += s.dur;
    return t;
  }
  /// Structured blackout anatomy: {"mode":..,"freeze_at_ns":..,
  /// "resume_at_ns":..,"blackout_ns":..,"aborted":..,"slices":[{"name":..,
  /// "start_ns":..,"dur_ns":..,<detail>}...]}.
  void write_waterfall(common::Json& j) const;
  std::string waterfall_json() const;
};

/// Applications that survive migration implement this: the controller calls
/// on_migrated once the service is restored, so the app re-registers its
/// tasks on the destination process (the simulation's equivalent of CRIU
/// resuming the process image).
class MigratableApp {
 public:
  virtual ~MigratableApp() = default;
  virtual void on_migrated(proc::SimProcess& new_proc) = 0;
};

class MigrationController {
 public:
  MigrationController(sim::EventLoop& loop, net::Fabric& fabric, GuestDirectory& directory,
                      MigrationOptions options = {});

  using DoneCb = std::function<void(const MigrationReport&)>;

  /// Kick off the migration of guest `id` to `dest_host`. `dest_proc` is
  /// the (fresh) destination container process. Returns immediately; the
  /// workflow runs on the event loop and `done` fires at completion.
  common::Status start(GuestId id, net::HostId dest_host, proc::SimProcess& dest_proc,
                       MigratableApp* app, DoneCb done);

  const MigrationReport& report() const noexcept { return report_; }

 private:
  void fail(const common::Status& st);
  /// Cancel the migration and roll back: resume the source in place, clean
  /// up partner-side prepared QPs, and tear down staged destination
  /// resources. Past the commit point (source released) this degrades to
  /// fail() — there is no source left to resume.
  void abort(const common::Status& st);
  void phase_initial_dump();
  void transfer_to_dest(common::Bytes payload,
                        std::function<void(common::Bytes)> on_delivered);
  /// Copy the mux's per-stream counters into the report. Called at every
  /// terminal point so aborted migrations report what they attempted.
  void sync_mux_stats();
  /// A pre-copy round's payload, written once into an exactly-sized
  /// buffer: the memory image, the page batch (through the suppression
  /// codec when suppress_pages is on) and, when given, the RDMA pre-dump,
  /// each length-prefixed.
  common::Bytes round_payload(const criu::Checkpointer::Dump& dump,
                              const common::Bytes* rdma);
  /// Pre-copy page batch through the suppression codec.
  common::Bytes encode_pages(const criu::PageSet& pages);
  /// The page batch of a received round (suppressed or plain); its pages
  /// view `data` or the decoder's cache.
  common::Result<criu::PageSet> decode_pages(Section data);
  void phase_partial_restore(common::Bytes payload);
  void phase_precopy_round();
  void phase_stop_and_copy();
  void on_wbs_one();
  void on_wbs_complete();
  void phase_final_transfer();
  void phase_final_restore(common::Bytes payload);
  void phase_resume();
  void on_postcopy_drained(const common::Status& st);

  /// Convergence predictor: true while the next round is predicted to
  /// shrink the dirty set (possibly after stepping the throttle).
  bool precopy_should_continue(std::uint64_t pending_bytes);
  void reset_throttle();

  sim::EventLoop& loop_;
  net::Fabric& fabric_;
  MigrationOptions options_;
  GuestMove move_;

  rnic::Context* src_ctx_ = nullptr;  // reclaimed at the end
  MigratableApp* app_ = nullptr;
  DoneCb done_;

  std::unique_ptr<criu::DirtyRateEstimator> estimator_;
  std::unique_ptr<criu::PageDeltaEncoder> page_enc_;
  std::unique_ptr<criu::PageDeltaDecoder> page_dec_;
  std::unique_ptr<PostcopyPump> pump_;  // rides move_'s mux
  std::vector<proc::VirtAddr> postcopy_missing_;
  double throttle_factor_ = 0;
  common::Bytes predump_rdma_bytes_;
  common::Bytes final_rdma_bytes_;

  int rounds_done_ = 0;
  int pending_wbs_ = 0;
  bool wbs_completed_ = false;
  sim::EventHandle wbs_timeout_handle_;

  // Abort/rollback state machine.
  const char* phase_ = "init";
  std::function<void(common::Bytes)> xfer_cb_;  // the in-flight transfer's continuation

  MigrationReport report_;
};

}  // namespace migr::migrlib
