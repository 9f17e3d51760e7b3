#include "cluster/scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/sli.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace migr::cluster {

using common::Errc;
using common::Status;

namespace {
// SLO-aware admission: a burning tenant's request is re-examined this long
// after a deferral, and admitted anyway after this many deferrals.
constexpr sim::DurationNs kSloDeferBackoff = sim::msec(1);
constexpr int kSloDeferMax = 8;

void trace_instant(sim::EventLoop& loop, std::string_view name, std::string args) {
  auto& t = obs::Tracer::global();
  if (t.enabled()) t.instant(loop.now(), name, "cluster", std::move(args));
}
}  // namespace

MigrationScheduler::MigrationScheduler(ClusterModel& model, SchedulerConfig config)
    : model_(model), config_(std::move(config)) {
  auto& reg = obs::Registry::global();
  queued_gauge_ = &reg.gauge("cluster.sched.queued");
  running_gauge_ = &reg.gauge("cluster.sched.running");
  submitted_ = &reg.counter("cluster.sched.submitted");
  started_ = &reg.counter("cluster.sched.started");
  completed_ = &reg.counter("cluster.sched.completed");
  aborted_ = &reg.counter("cluster.sched.aborted");
  retried_ = &reg.counter("cluster.sched.retried");
  failed_ = &reg.counter("cluster.sched.failed");
  slo_deferred_ = &reg.counter("cluster.sched.slo_deferred");
  queue_wait_ = &reg.histogram("cluster.sched.queue_wait_ns");
}

MigrationScheduler::~MigrationScheduler() = default;

RequestId MigrationScheduler::submit(MigrationRequest req, OutcomeCb done) {
  const RequestId id = next_id_++;
  MigrationOutcome& out = outcomes_[id];
  out.id = id;
  out.guest = req.guest;
  out.submitted_at = model_.loop().now();
  if (done) request_cbs_[id] = std::move(done);
  submitted_->inc();
  pending_.push_back(Pending{id, req, 0});
  trace_instant(model_.loop(), "sched_submit",
                "\"guest\":" + std::to_string(req.guest) +
                    ",\"dest\":" + std::to_string(req.dest) +
                    ",\"priority\":" + std::to_string(req.priority));
  schedule_pump();
  update_gauges();
  return id;
}

const MigrationOutcome* MigrationScheduler::outcome(RequestId id) const {
  auto it = outcomes_.find(id);
  return it == outcomes_.end() ? nullptr : &it->second;
}

Status MigrationScheduler::run_until_idle(sim::DurationNs max_wait) {
  const sim::TimeNs deadline = model_.loop().now() + max_wait;
  while (!idle() && model_.loop().now() < deadline) model_.run_for(sim::msec(1));
  if (!idle()) {
    return common::err(Errc::timeout, "scheduler not idle after " +
                                          std::to_string(max_wait) + " ns");
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Queue pump
// ---------------------------------------------------------------------------

void MigrationScheduler::schedule_pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  // Deferred one tick: lets a controller's done-callback unwind before its
  // object is destroyed, and batches a burst of submits into one pump.
  model_.loop().schedule_in(0, [this] {
    pump_scheduled_ = false;
    retired_.clear();
    pump();
  });
}

bool MigrationScheduler::conflicts_with_running(GuestId guest) const {
  for (const auto& [id, r] : running_) {
    if (r.req.guest == guest) return true;
    if (std::find(r.partners.begin(), r.partners.end(), guest) != r.partners.end()) {
      return true;
    }
  }
  return false;
}

bool MigrationScheduler::admission_ok(net::HostId src, net::HostId dest) const {
  const AdmissionLimits& lim = config_.limits;
  if (running_.size() >= lim.max_concurrent_fleet) return false;
  auto count_of = [](const std::map<net::HostId, std::uint32_t>& m, net::HostId h) {
    auto it = m.find(h);
    return it == m.end() ? 0u : it->second;
  };
  if (count_of(running_per_source_, src) >= lim.max_concurrent_per_source) return false;
  return count_of(running_per_dest_, dest) < lim.max_concurrent_per_dest;
}

void MigrationScheduler::pump() {
  if (pending_.empty()) {
    update_gauges();
    return;
  }
  // Work on a swapped-out copy: finish() callbacks may submit() new
  // requests mid-scan, which must not invalidate this iteration.
  std::vector<Pending> work;
  work.swap(pending_);
  std::stable_sort(work.begin(), work.end(), [](const Pending& a, const Pending& b) {
    if (a.req.priority != b.req.priority) return a.req.priority > b.req.priority;
    return a.id < b.id;
  });
  // Single ordered scan with backfill: a request blocked by admission or a
  // guest conflict does not block lower-priority requests that are eligible.
  std::vector<Pending> keep;
  for (Pending& p : work) {
    const net::HostId src = model_.host_of(p.req.guest);
    if (src == 0) {
      MigrationOutcome& out = outcomes_[p.id];
      out.failed = true;
      out.error = "guest not found";
      out.finished_at = model_.loop().now();
      failed_->inc();
      finish(p.id);
      continue;
    }
    if (p.req.dest != 0 && p.req.dest == src) {
      // Already where the request wants it: terminal no-op success.
      MigrationOutcome& out = outcomes_[p.id];
      out.source = out.dest = src;
      out.completed = true;
      out.started_at = out.finished_at = model_.loop().now();
      out.report.ok = true;
      out.report.start = out.report.end = model_.loop().now();
      completed_->inc();
      finish(p.id);
      continue;
    }
    if (conflicts_with_running(p.req.guest)) {
      keep.push_back(std::move(p));
      continue;
    }
    if (config_.slo_defer && p.slo_defers < kSloDeferMax) {
      const obs::SloEngine* slo = obs::SliHub::global().slo_engine();
      if (slo != nullptr && slo->burning(p.req.guest)) {
        // Tenant is eating its error budget right now: migrating it would
        // stack blackout on top of an active brownout. Defer (bounded).
        p.slo_defers++;
        slo_deferrals_++;
        slo_deferred_->inc();
        trace_instant(model_.loop(), "sched_slo_defer",
                      "\"guest\":" + std::to_string(p.req.guest) +
                          ",\"defers\":" + std::to_string(p.slo_defers));
        if (!defer_pump_scheduled_) {
          defer_pump_scheduled_ = true;
          model_.loop().schedule_in(kSloDeferBackoff, [this] {
            defer_pump_scheduled_ = false;
            schedule_pump();
          });
        }
        keep.push_back(std::move(p));
        continue;
      }
    }
    net::HostId dest = p.req.dest;
    if (dest == 0) {
      auto picked = model_.least_loaded(model_.placeable_hosts(src));
      if (!picked.is_ok()) {
        // Nowhere to place right now (fleet draining/partitioned); keep
        // queued — a later pump may find a host again.
        keep.push_back(std::move(p));
        continue;
      }
      dest = picked.value();
    }
    if (!admission_ok(src, dest)) {
      keep.push_back(std::move(p));
      continue;
    }
    start_attempt(std::move(p), src, dest);
  }
  // Anything submitted while scanning lands behind the survivors; the next
  // pump re-sorts by priority anyway.
  keep.insert(keep.end(), std::make_move_iterator(pending_.begin()),
              std::make_move_iterator(pending_.end()));
  pending_ = std::move(keep);
  update_gauges();
}

void MigrationScheduler::start_attempt(Pending p, net::HostId src, net::HostId dest) {
  const sim::TimeNs now = model_.loop().now();
  MigrationOutcome& out = outcomes_[p.id];
  if (out.started_at == 0) {
    out.started_at = now;
    queue_wait_->observe(now - out.submitted_at);
  }
  out.source = src;
  out.dest = dest;

  Running r;
  r.id = p.id;
  r.req = p.req;
  r.source = src;
  r.dest = dest;
  r.attempt = p.attempt + 1;
  r.partners = model_.partners_of(p.req.guest);
  migrlib::MigrationOptions opts = config_.migration;
  if (p.req.mode.has_value()) {
    opts.mode = *p.req.mode;
  } else if (config_.postcopy_dirty_bps > 0) {
    const TrafficProfile* prof = model_.profile_of(p.req.guest);
    if (prof != nullptr && prof->dirty_bytes_per_sec() >= config_.postcopy_dirty_bps) {
      opts.mode = migrlib::MigrationMode::postcopy;
    }
  }
  // Auto-converge lands on the fleet model's generators; clears on finish.
  opts.throttle = [m = &model_, g = p.req.guest](double f) { m->set_throttle(g, f); };
  r.ctl = std::make_unique<migrlib::MigrationController>(model_.loop(), model_.fabric(),
                                                         model_.directory(), opts);
  auto& dest_proc = model_.world().add_process(
      "migr-dest-" + std::to_string(p.req.guest) + "-a" + std::to_string(r.attempt));
  const RequestId id = p.id;
  auto st = r.ctl->start(p.req.guest, dest, dest_proc, model_.app_of(p.req.guest),
                         [this, id](const MigrationReport& rep) { on_done(id, rep); });
  out.attempts = r.attempt;
  if (!st.is_ok()) {
    // Synchronous rejection (bad request / unsupported guest): terminal, no
    // retry — the condition is not transient.
    out.failed = true;
    out.error = st.to_string();
    out.finished_at = now;
    failed_->inc();
    finish(id);
    return;
  }
  started_->inc();
  running_per_source_[src]++;
  running_per_dest_[dest]++;
  trace_instant(model_.loop(), "sched_start",
                "\"guest\":" + std::to_string(p.req.guest) + ",\"src\":" +
                    std::to_string(src) + ",\"dest\":" + std::to_string(dest) +
                    ",\"attempt\":" + std::to_string(r.attempt));
  running_.emplace(id, std::move(r));
}

void MigrationScheduler::on_done(RequestId id, const MigrationReport& rep) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  Running r = std::move(it->second);
  running_.erase(it);
  // The callback runs inside the controller; park the object until the next
  // loop tick before destroying it.
  retired_.push_back(std::move(r.ctl));

  auto dec = [](std::map<net::HostId, std::uint32_t>& m, net::HostId h) {
    auto e = m.find(h);
    if (e != m.end() && --e->second == 0) m.erase(e);
  };
  dec(running_per_source_, r.source);
  dec(running_per_dest_, r.dest);

  MigrationOutcome& out = outcomes_[id];
  out.report = rep;
  out.source = r.source;
  out.dest = r.dest;
  out.attempts = r.attempt;

  if (rep.ok) {
    out.completed = true;
    out.finished_at = model_.loop().now();
    completed_->inc();
    finish(id);
  } else if (rep.aborted && r.attempt <= config_.max_retries) {
    // Rolled back cleanly; source still serving. Retry with backoff. A
    // request without a pinned destination gets a fresh pick on re-admission.
    aborted_->inc();
    retried_->inc();
    const sim::DurationNs backoff = config_.retry_backoff << (r.attempt - 1);
    MIGR_WARN() << "migration of guest " << r.req.guest << " aborted (attempt "
                << r.attempt << "); retrying in " << backoff << " ns";
    trace_instant(model_.loop(), "sched_retry",
                  "\"guest\":" + std::to_string(r.req.guest) +
                      ",\"attempt\":" + std::to_string(r.attempt));
    waiting_retry_++;
    Pending again{id, r.req, r.attempt};
    model_.loop().schedule_in(backoff, [this, again] {
      waiting_retry_--;
      pending_.push_back(again);
      schedule_pump();
      update_gauges();
    });
  } else {
    if (rep.aborted) aborted_->inc();
    out.failed = true;
    out.error = rep.error.empty() ? "migration failed" : rep.error;
    out.finished_at = model_.loop().now();
    failed_->inc();
    finish(id);
  }
  schedule_pump();
  update_gauges();
}

void MigrationScheduler::finish(RequestId id) {
  const MigrationOutcome& out = outcomes_.at(id);
  trace_instant(model_.loop(), out.completed ? "sched_done" : "sched_failed",
                "\"guest\":" + std::to_string(out.guest) +
                    ",\"attempts\":" + std::to_string(out.attempts));
  auto cb = request_cbs_.find(id);
  if (cb != request_cbs_.end()) {
    auto fn = std::move(cb->second);
    request_cbs_.erase(cb);
    if (fn) fn(out);
  }
}

void MigrationScheduler::update_gauges() {
  queued_gauge_->set(static_cast<double>(pending_.size()));
  running_gauge_->set(static_cast<double>(running_.size()));
}

// ---------------------------------------------------------------------------
// Rolling rebalance
// ---------------------------------------------------------------------------

std::vector<MigrationRequest> MigrationScheduler::plan_rebalance(
    std::uint32_t max_moves) const {
  std::vector<MigrationRequest> plan;
  const auto hosts = model_.placeable_hosts();
  if (hosts.size() < 2) return plan;

  std::map<net::HostId, std::vector<GuestId>> by_host;
  for (net::HostId h : hosts) by_host[h] = model_.guests_on(h);

  while (plan.size() < max_moves) {
    net::HostId max_h = 0, min_h = 0;
    for (net::HostId h : hosts) {
      if (max_h == 0 || by_host[h].size() > by_host[max_h].size()) max_h = h;
      if (min_h == 0 || by_host[h].size() < by_host[min_h].size()) min_h = h;
    }
    if (by_host[max_h].size() <= by_host[min_h].size() + 1) break;
    // Lowest guest id moves first: deterministic plans for a given model.
    const GuestId mover = by_host[max_h].front();
    by_host[max_h].erase(by_host[max_h].begin());
    by_host[min_h].push_back(mover);
    plan.push_back(MigrationRequest{mover, min_h, 0});
  }
  return plan;
}

std::vector<RequestId> MigrationScheduler::submit_rebalance(std::uint32_t max_moves,
                                                            int priority) {
  std::vector<RequestId> ids;
  for (MigrationRequest req : plan_rebalance(max_moves)) {
    req.priority = priority;
    ids.push_back(submit(req));
  }
  return ids;
}

}  // namespace migr::cluster
