// Per-guest service-level-indicator pipeline: the brownout counterpart to
// the blackout waterfall.
//
// The waterfall (PR 5) attributes the *frozen* gap; this layer measures the
// degraded-but-alive service around it. Applications tap two things into
// the hub — message RTTs (post -> completion, no wire change) and delivered
// payload bytes — and each guest registers a retransmit counter source
// polled from the transport. The hub aggregates them into tumbling sim-time
// windows (p50/p99/p999 latency via obs::Histogram, goodput, retransmit
// rate), and tags every window with the guest's current migration phase:
//
//     idle -> precopy(iter k) -> frozen -> recovery -> idle
//
// Phase transitions force window boundaries, so the frozen windows tile
// [freeze_at, resume_at] exactly — the brownout timeline composes with the
// blackout waterfall instead of sampling across it. Stretches with no
// traffic collapse into a single (empty) window; the timeline still tiles.
//
// Window closure is lazy and observation/query-driven: the obs layer never
// schedules events on the loop (that would perturb the simulation), so a
// window closes when a later observation, a phase hook, or a flush() pushes
// time past its end — the same caller-driven discipline as TimeSeriesSampler.
//
// Cost discipline: SliHub is a global() singleton like Tracer/Registry.
// Disabled (the default), the data-path cost is one branch per message at
// the tap site (apps keep a null GuestSli*). Enabled, a sample is histogram-bucket arithmetic on
// preallocated memory; allocation happens only when a window closes (the
// summary vector grows) — never per message.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/histogram.hpp"
#include "sim/time.hpp"

namespace migr::obs {

class SloEngine;

/// What the guest's service was doing while a window accumulated.
/// `postcopy` is the degraded-but-alive stretch after a post-copy resume,
/// while missing pages still demand-fault back from the source; it sits
/// between frozen and recovery in the episode timeline. `ft_buffered` is
/// the continuous-FT steady state: the service runs, but egress is held in
/// the output-commit queue until the covering checkpoint epoch is ACKed —
/// brownout attribution shows the output-commit tax as this phase.
enum class ServicePhase : std::uint8_t { idle, precopy, frozen, recovery, postcopy, ft_buffered };

const char* service_phase_name(ServicePhase p) noexcept;

/// One closed tumbling window of a guest's service quality.
struct SliWindow {
  sim::TimeNs start = 0;
  sim::TimeNs end = 0;  // exclusive; windows tile, next.start == this.end
  ServicePhase phase = ServicePhase::idle;
  std::int32_t precopy_iter = -1;  // 0-based iteration; -1 outside precopy

  std::uint64_t msgs = 0;         // RTT samples in the window
  std::uint64_t bytes = 0;        // delivered payload bytes
  std::uint64_t retransmits = 0;  // transport retransmits (counter delta)

  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
  std::int64_t max_ns = 0;

  sim::DurationNs duration() const noexcept { return end - start; }
  /// Delivered application bytes per second over the window.
  double goodput_bps() const noexcept;
  /// Retransmits per second over the window.
  double retx_rate() const noexcept;
};

/// The migration-aware brownout attribution attached to MigrationReport:
/// what the migration cost the *running* service, phase by phase.
struct BrownoutAttribution {
  bool valid = false;  // false when SLI was off or the guest is unknown

  sim::TimeNs migration_start = 0;
  sim::TimeNs freeze_at = 0;
  sim::TimeNs resume_at = 0;

  // Pre-migration idle baseline the costs are measured against.
  std::int64_t baseline_p99_ns = 0;
  double baseline_goodput_bps = 0;

  /// Integral over [migration_start, resume_at + recovery] of
  /// max(0, baseline_goodput - goodput) dt — application bytes the
  /// migration cost the service.
  double goodput_loss_bytes = 0;

  /// Transport go-back-N rewinds on the guest's own QPs over the same
  /// episode windows: the wasted-retransmission side of the brownout.
  /// (Waste a partner suffers toward the guest shows on the partner's
  /// windows and in the fleet wire split of the drain report.)
  std::uint64_t retransmits = 0;

  /// p99 per pre-copy iteration, and its inflation over the baseline.
  struct IterInflation {
    std::int32_t iter = 0;
    std::int64_t p99_ns = 0;
    double inflation = 0;  // p99 / baseline_p99 (0 when no baseline)
  };
  std::vector<IterInflation> precopy_p99;

  /// Time from resume until the first window whose p99 is back within
  /// recovery_factor of the baseline. -1 while recovery is still pending.
  sim::DurationNs recovery_ns = -1;

  /// JSON object for artifact/report embedding.
  void write(common::Json& j) const;
};

struct SliConfig {
  sim::DurationNs window = sim::usec(200);  // tumbling window length
  double recovery_factor = 1.5;  // p99 <= baseline*factor ends recovery
  std::uint64_t min_recovery_msgs = 4;  // windows thinner than this can't end it
};

class SliHub;

/// Per-guest SLI state. Resolve once via SliHub::guest() and keep the
/// pointer (stable for the hub's lifetime) — the data-path taps are then a
/// null check away, mirroring the registry's resolve-once discipline.
class GuestSli {
 public:
  /// Message RTT sample at sim-time `now`.
  void rtt(sim::TimeNs now, sim::DurationNs rtt_ns);
  /// Payload delivery of `bytes` at sim-time `now`.
  void delivered(sim::TimeNs now, std::uint64_t bytes);

  const std::vector<SliWindow>& windows() const noexcept { return closed_; }
  ServicePhase phase() const noexcept { return phase_; }

 private:
  friend class SliHub;
  GuestSli(SliHub& hub, std::uint32_t id, const SliConfig& cfg, sim::TimeNs now);

  void set_phase(sim::TimeNs now, ServicePhase p, std::int32_t iter);
  /// Close full windows until `now` falls inside the live window.
  void roll_to(sim::TimeNs now);
  /// Close the live window at exactly `at` (phase boundary / flush).
  void close_at(sim::TimeNs at);
  void emit(sim::TimeNs end);
  std::uint64_t poll_retransmits();

  SliHub& hub_;
  std::uint32_t id_ = 0;
  SliConfig cfg_;

  // Live window accumulation (histogram memory is reused across windows).
  sim::TimeNs win_start_ = 0;
  Histogram rtt_{Histogram::kDefaultExactCapacity};
  std::uint64_t msgs_ = 0;
  std::uint64_t bytes_ = 0;

  ServicePhase phase_ = ServicePhase::idle;
  std::int32_t precopy_iter_ = -1;

  std::function<std::uint64_t()> retx_source_;
  std::uint64_t last_retx_ = 0;
  bool retx_primed_ = false;

  // Idle baseline: closed idle-window stats feeding the attribution.
  Histogram baseline_rtt_{Histogram::kDefaultExactCapacity};
  double baseline_bytes_ = 0;
  sim::DurationNs baseline_time_ = 0;

  // Current / last migration episode.
  sim::TimeNs mig_start_ = -1;
  sim::TimeNs freeze_at_ = -1;
  sim::TimeNs resume_at_ = -1;
  sim::DurationNs recovery_ns_ = -1;

  std::vector<SliWindow> closed_;
};

/// Process-wide SLI hub. Off by default; arming it (set_enabled(true))
/// before guests register makes every tap live. clear() between tests.
class SliHub {
 public:
  static SliHub& global();

  SliHub() = default;
  SliHub(const SliHub&) = delete;
  SliHub& operator=(const SliHub&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Set before guests register; windows already open keep their geometry.
  void set_config(const SliConfig& cfg) { cfg_ = cfg; }
  const SliConfig& config() const noexcept { return cfg_; }

  /// Resolve (creating at sim-time `now` on first use) a guest's SLI state.
  /// Returns nullptr when the hub is disabled — callers cache the result
  /// and their taps reduce to one null-check branch.
  GuestSli* guest(std::uint32_t id, sim::TimeNs now);
  /// Lookup without creating (nullptr when absent).
  GuestSli* find(std::uint32_t id);

  /// Transport retransmit counter for a guest, polled at window close.
  void set_retransmit_source(std::uint32_t id, sim::TimeNs now,
                             std::function<std::uint64_t()> fn);

  // -- Migration attribution hooks (no-ops when disabled/unknown) ----------
  void on_migration_start(std::uint32_t id, sim::TimeNs now);
  void on_precopy_iteration(std::uint32_t id, sim::TimeNs now, std::int32_t iter);
  void on_freeze(std::uint32_t id, sim::TimeNs now);
  void on_resume(std::uint32_t id, sim::TimeNs now);
  /// Post-copy resume: service is live but pages still fault from the
  /// source; windows tag `postcopy` until on_postcopy_drained flips them
  /// into the normal recovery detection.
  void on_postcopy_resume(std::uint32_t id, sim::TimeNs now);
  void on_postcopy_drained(std::uint32_t id, sim::TimeNs now);
  /// Abort/failure: back to idle attribution-wise (rolled-back service).
  void on_migration_end(std::uint32_t id, sim::TimeNs now);

  // -- Continuous-FT hooks -------------------------------------------------
  /// FT protection armed: egress buffers until epochs commit; windows tag
  /// `ft_buffered` so the output-commit latency tax is attributable.
  void on_ft_protected(std::uint32_t id, sim::TimeNs now);
  /// FT protection dropped (unprotect or post-failover recovery done).
  void on_ft_released(std::uint32_t id, sim::TimeNs now);

  /// Close every guest's live window at `now` (call before reading/export).
  void flush(sim::TimeNs now);

  /// Brownout attribution for the guest's most recent migration episode.
  BrownoutAttribution attribution(std::uint32_t id) const;

  /// Attach an SLO engine; every closed window is fed to it.
  void set_slo_engine(SloEngine* eng) noexcept { slo_ = eng; }
  SloEngine* slo_engine() const noexcept { return slo_; }

  std::vector<std::uint32_t> guest_ids() const;

  /// Windowed SLI timeline as CSV (the --sli-csv artifact).
  std::string export_csv() const;

  /// Drop all guests and state (test / bench isolation). Keeps enabled flag.
  void clear();

 private:
  friend class GuestSli;
  void window_closed(std::uint32_t id, const SliWindow& w);

  bool enabled_ = false;
  SliConfig cfg_;
  SloEngine* slo_ = nullptr;
  std::map<std::uint32_t, std::unique_ptr<GuestSli>> guests_;
};

}  // namespace migr::obs
