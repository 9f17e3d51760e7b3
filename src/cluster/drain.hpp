// DrainWorkflow: end-to-end host evacuation for maintenance.
//
// Marks the host draining (no new placements), submits one migration request
// per resident guest at drain priority (each to the least-loaded placeable
// host, picked per attempt), and tracks the batch to completion through the
// scheduler — including the scheduler's abort/backoff-retry handling. While
// the drain runs it samples the drained host's egress (data + ctrl bytes)
// every 1 ms into a bandwidth-vs-time series; at the
// end it emits a fleet-level DrainReport: makespan, per-migration blackout
// percentiles, aborts/retries/failures, and the sampled series.
//
// A drain of a host with zero guests completes synchronously inside
// start(). The draining flag stays set after a successful evacuation (the
// host is going down for maintenance); callers that want the host back call
// ClusterModel::set_draining(host, false).
#pragma once

#include <string>

#include "cluster/scheduler.hpp"
#include "obs/critical_path.hpp"
#include "obs/histogram.hpp"

namespace migr::cluster {

struct BandwidthSample {
  sim::TimeNs at = 0;
  double gbps = 0;  // drained-host egress (data + ctrl) over the last interval
};

/// Fleet-level rollup of one blackout phase across every migration in the
/// drain (from the per-migration waterfalls).
struct PhaseAttribution {
  std::string phase;
  std::uint64_t worst_count = 0;  // migrations whose longest slice was this phase
  sim::DurationNs total = 0;      // summed over all waterfalls
  sim::DurationNs max = 0;        // worst single slice
};

/// Fleet-level rollup of one critical-path edge class across the migrations
/// that ran with critical-path attribution (DESIGN.md §16). Percentiles are
/// nearest-rank over the per-migration class totals.
struct EdgeAttribution {
  std::string edge;
  std::uint64_t dominant_count = 0;  // migrations whose dominant edge was this
  sim::DurationNs total = 0;         // summed over all critical paths
  sim::DurationNs max = 0;           // worst per-migration class total
  sim::DurationNs p50 = 0;
  sim::DurationNs p99 = 0;
};

struct DrainReport {
  net::HostId host = 0;
  bool ok = false;  // every resident guest evacuated (all completed)
  std::string error;
  sim::TimeNs started_at = 0;
  sim::TimeNs finished_at = 0;
  std::vector<MigrationOutcome> outcomes;  // sorted by guest id

  std::uint64_t migrations = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;  // extra attempts beyond the first, summed
  std::uint64_t aborts = 0;   // aborted attempts (retried or terminal)

  // Service-blackout distribution over the completed migrations
  // (nearest-rank percentiles via obs::Histogram's exact mode).
  sim::DurationNs blackout_p50 = 0;
  sim::DurationNs blackout_p99 = 0;
  sim::DurationNs blackout_max = 0;

  // SLO summary for the drain window (zero when no SLO engine was armed).
  // Not rendered by format_drain_report — the text format predates the SLO
  // engine and stays byte-stable; benches read these fields directly.
  std::uint64_t slo_alerts = 0;      // alerts fired during the drain
  std::uint64_t slo_deferrals = 0;   // scheduler deferrals for burning guests

  std::vector<BandwidthSample> egress_gbps;

  // Fleet wire split over the drain window: what became of the packets
  // every device received and sent (RNR drops, out-of-sequence drops,
  // duplicates and retransmissions are the wasted share).
  rnic::PortCounters wire;

  // Blackout anatomy across the fleet: which phase dominated each
  // migration's blackout, sorted by phase name (deterministic).
  std::vector<PhaseAttribution> phase_rollup;

  // Causal attribution across the fleet (only populated when some
  // migrations ran with MigrationOptions::critical_path): one entry per
  // edge class in enum order — all kEdgeClassCount classes, zeros included,
  // so the JSON schema is fixed. Empty when cp_migrations == 0.
  std::uint64_t cp_migrations = 0;  // outcomes carrying a valid critical path
  std::vector<EdgeAttribution> cp_rollup;
  std::string cp_dominant;  // most summed blackout time (slack excluded)

  sim::DurationNs makespan() const { return finished_at - started_at; }
};

/// Deterministic text rendering (sim-time fields only): byte-identical
/// across runs with the same seed — the reproducibility tests diff it.
std::string format_drain_report(const DrainReport& report);

/// Machine-readable artifact (kind "drain_report", version 1): fleet rollup,
/// per-phase attribution, post-copy accounting (zeros on a pure pre-copy
/// leg), and per-guest blackout waterfalls. `mode` and `scenario` label the
/// leg so a pre-copy and a post-copy run of the same workload are directly
/// comparable; validated by tools/validate_artifacts.py --drain.
std::string drain_report_json(const DrainReport& report, const std::string& mode,
                              const std::string& scenario);

class DrainWorkflow {
 public:
  using DoneCb = std::function<void(const DrainReport&)>;

  DrainWorkflow(ClusterModel& model, MigrationScheduler& scheduler)
      : model_(model), scheduler_(&scheduler) {}
  DrainWorkflow(const DrainWorkflow&) = delete;
  DrainWorkflow& operator=(const DrainWorkflow&) = delete;
  ~DrainWorkflow();

  /// Kick off the evacuation of `host`; `done` fires when the last resident
  /// guest reaches a terminal outcome (synchronously for an empty host).
  /// Drain requests outrank default-priority single moves.
  common::Status start(net::HostId host, DoneCb done);
  /// Synchronous convenience: start + pump the loop until done or 600
  /// simulated seconds pass.
  DrainReport run(net::HostId host);

  bool active() const noexcept { return active_; }
  const DrainReport& report() const noexcept { return report_; }

 private:
  void on_outcome(const MigrationOutcome& outcome);
  void finalize();

  ClusterModel& model_;
  MigrationScheduler* scheduler_;
  DrainReport report_;
  DoneCb done_;
  bool active_ = false;
  std::size_t outstanding_ = 0;
  std::uint64_t last_egress_bytes_ = 0;
  rnic::PortCounters wire_at_start_;
  sim::EventHandle sampler_;
  obs::Histogram blackouts_;  // exact mode: nearest-rank, byte-identical reports
  std::uint64_t slo_alerts_at_start_ = 0;
  std::uint64_t slo_deferrals_at_start_ = 0;
};

}  // namespace migr::cluster
