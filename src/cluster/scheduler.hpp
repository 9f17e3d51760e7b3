// MigrationScheduler: the fleet control plane on top of MigrationController.
//
// Accepts migration requests (single moves, the bulk submissions behind host
// drains and rolling rebalances), holds them in a priority queue, and starts
// them under admission control:
//
//  * fleet / per-source / per-destination concurrency caps,
//  * guest-conflict exclusion — a guest with a migration in flight, or one
//    that is a messaging partner of an in-flight migration, is never
//    started concurrently (two partnered migrations would race each
//    other's wait-before-stop and partner-QP switch).
//
// A request that does not pin a destination goes to the least-loaded
// placeable host (ClusterModel::least_loaded), picked again on every retry,
// so an abort caused by a dead destination routes the retry elsewhere. Aborted
// migrations (MigrationReport.aborted, PR 2's rollback path) are re-queued
// with exponential backoff up to a retry budget, then surfaced as failed.
// Hard failures past the commit point are terminal immediately.
//
// Everything runs on the sim event loop; with a fixed seed the schedule is
// bit-for-bit reproducible. Queue depth, running count, and outcome
// counters are exported through obs ("cluster.sched.*").
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace migr::cluster {

using migrlib::MigrationOptions;
using migrlib::MigrationReport;

using RequestId = std::uint64_t;

struct AdmissionLimits {
  std::uint32_t max_concurrent_fleet = 4;
  std::uint32_t max_concurrent_per_source = 2;
  std::uint32_t max_concurrent_per_dest = 2;
};

struct SchedulerConfig {
  AdmissionLimits limits;
  MigrationOptions migration;  // applied to every controller the queue spawns
  int max_retries = 3;         // re-submissions after an aborted attempt
  sim::DurationNs retry_backoff = sim::msec(10);  // doubles per retry

  // Mode policy: a guest whose profile dirties at least this many bytes/sec
  // is migrated post-copy (pre-copy would chase the dirty set). 0 disables;
  // an explicit MigrationRequest::mode always wins.
  double postcopy_dirty_bps = 0.0;

  // SLO-aware admission (DESIGN.md §12): when true and an SloEngine is
  // attached to the global SliHub, a request whose guest is currently
  // burning its error budget (active SLO alert) is deferred and re-examined
  // 1 ms later — at most 8 times, then admitted anyway so a
  // permanently-burning tenant cannot livelock its own drain.
  bool slo_defer = false;
};

struct MigrationRequest {
  GuestId guest = 0;
  net::HostId dest = 0;  // 0 = the least-loaded placeable host (per attempt)
  int priority = 0;      // higher runs first; ties in submission order
  // Pre/post-copy override for this request; unset = SchedulerConfig default
  // (postcopy_dirty_bps policy, else config_.migration.mode).
  std::optional<migrlib::MigrationMode> mode{};
};

/// Lifecycle record of one request, kept from submit to terminal state.
struct MigrationOutcome {
  RequestId id = 0;
  GuestId guest = 0;
  net::HostId source = 0;  // source of the most recent attempt
  net::HostId dest = 0;    // destination of the most recent attempt
  int attempts = 0;        // controller starts (1 + retries used)
  bool completed = false;
  bool failed = false;
  std::string error;
  sim::TimeNs submitted_at = 0;
  sim::TimeNs started_at = 0;   // first attempt start (queue wait ends)
  sim::TimeNs finished_at = 0;  // terminal completion/failure
  MigrationReport report;       // most recent attempt's report

  bool terminal() const { return completed || failed; }
  sim::DurationNs queue_wait() const { return started_at - submitted_at; }
};

class MigrationScheduler {
 public:
  using OutcomeCb = std::function<void(const MigrationOutcome&)>;

  MigrationScheduler(ClusterModel& model, SchedulerConfig config = {});
  MigrationScheduler(const MigrationScheduler&) = delete;
  MigrationScheduler& operator=(const MigrationScheduler&) = delete;
  /// Destroy only when idle (or when the loop will never run again):
  /// in-flight controllers have events scheduled against them.
  ~MigrationScheduler();

  /// Enqueue a request. `done` (optional) fires once, at the terminal
  /// outcome.
  RequestId submit(MigrationRequest req, OutcomeCb done = nullptr);

  /// Rolling rebalance: guests to move (lowest ids first) from the most- to
  /// the least-loaded placeable hosts until the guest-count spread is <= 1
  /// or `max_moves` is reached. plan_* is pure; submit_* enqueues the plan.
  std::vector<MigrationRequest> plan_rebalance(std::uint32_t max_moves) const;
  std::vector<RequestId> submit_rebalance(std::uint32_t max_moves, int priority = 0);

  const SchedulerConfig& config() const noexcept { return config_; }

  std::size_t queued() const noexcept { return pending_.size(); }
  std::size_t running() const noexcept { return running_.size(); }
  /// Cumulative SLO-burn deferrals (config_.slo_defer policy).
  std::uint64_t slo_deferrals() const noexcept { return slo_deferrals_; }
  bool idle() const noexcept {
    return pending_.empty() && running_.empty() && waiting_retry_ == 0;
  }
  /// Pump the model's loop until idle; timeout when max_wait elapses first.
  common::Status run_until_idle(sim::DurationNs max_wait = sim::sec(300));

  /// Every submitted request's lifecycle record (terminal or not), by id.
  const std::map<RequestId, MigrationOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  const MigrationOutcome* outcome(RequestId id) const;

 private:
  struct Pending {
    RequestId id = 0;
    MigrationRequest req;
    int attempt = 0;     // completed controller starts so far
    int slo_defers = 0;  // SLO-burn deferrals so far (capped by kSloDeferMax)
  };
  struct Running {
    RequestId id = 0;
    MigrationRequest req;
    net::HostId source = 0;
    net::HostId dest = 0;
    int attempt = 0;  // 1-based for this start
    std::vector<GuestId> partners;
    std::unique_ptr<migrlib::MigrationController> ctl;
  };

  void pump();
  void schedule_pump();
  bool conflicts_with_running(GuestId guest) const;
  bool admission_ok(net::HostId src, net::HostId dest) const;
  void start_attempt(Pending p, net::HostId src, net::HostId dest);
  void on_done(RequestId id, const MigrationReport& rep);
  void finish(RequestId id);  // outcome already marked terminal
  void update_gauges();

  ClusterModel& model_;
  SchedulerConfig config_;

  RequestId next_id_ = 1;
  std::vector<Pending> pending_;  // kept sorted (priority desc, id asc) at pump
  std::map<RequestId, Running> running_;
  std::vector<std::unique_ptr<migrlib::MigrationController>> retired_;
  std::map<RequestId, MigrationOutcome> outcomes_;
  std::map<RequestId, OutcomeCb> request_cbs_;
  int waiting_retry_ = 0;
  bool pump_scheduled_ = false;
  bool defer_pump_scheduled_ = false;  // one delayed re-pump per defer wave
  std::uint64_t slo_deferrals_ = 0;

  // Admission bookkeeping.
  std::map<net::HostId, std::uint32_t> running_per_source_;
  std::map<net::HostId, std::uint32_t> running_per_dest_;

  // Cached instruments (resolved once; hot path is plain adds).
  obs::Gauge* queued_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* started_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* aborted_ = nullptr;
  obs::Counter* retried_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* slo_deferred_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
};

}  // namespace migr::cluster
