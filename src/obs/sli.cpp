#include "obs/sli.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace migr::obs {

const char* service_phase_name(ServicePhase p) noexcept {
  switch (p) {
    case ServicePhase::idle: return "idle";
    case ServicePhase::precopy: return "precopy";
    case ServicePhase::frozen: return "frozen";
    case ServicePhase::recovery: return "recovery";
    case ServicePhase::postcopy: return "postcopy";
    case ServicePhase::ft_buffered: return "ft_buffered";
  }
  return "?";
}

double SliWindow::goodput_bps() const noexcept {
  const sim::DurationNs d = duration();
  if (d <= 0) return 0;
  return static_cast<double>(bytes) * 8.0 * sim::kSecond / static_cast<double>(d);
}

double SliWindow::retx_rate() const noexcept {
  const sim::DurationNs d = duration();
  if (d <= 0) return 0;
  return static_cast<double>(retransmits) * sim::kSecond / static_cast<double>(d);
}

void BrownoutAttribution::write(common::Json& j) const {
  j.obj().key("valid").val(valid).key("migration_start_ns").val(migration_start);
  j.key("freeze_at_ns").val(freeze_at).key("resume_at_ns").val(resume_at);
  j.key("baseline_p99_ns").val(baseline_p99_ns);
  j.key("baseline_goodput_bps").fixed(baseline_goodput_bps, 1);
  j.key("goodput_loss_bytes").fixed(goodput_loss_bytes, 1);
  j.key("retransmits").val(retransmits).key("recovery_ns").val(recovery_ns);
  j.key("precopy_p99").arr();
  for (const IterInflation& it : precopy_p99) {
    j.obj().key("iter").val(it.iter).key("p99_ns").val(it.p99_ns);
    j.key("inflation").fixed(it.inflation, 3).end();
  }
  j.end().end();
}

// ---------------------------------------------------------------------------
// GuestSli
// ---------------------------------------------------------------------------

GuestSli::GuestSli(SliHub& hub, std::uint32_t id, const SliConfig& cfg, sim::TimeNs now)
    : hub_(hub), id_(id), cfg_(cfg), win_start_(now) {}

void GuestSli::rtt(sim::TimeNs now, sim::DurationNs rtt_ns) {
  roll_to(now);
  rtt_.record(rtt_ns);
  msgs_++;
}

void GuestSli::delivered(sim::TimeNs now, std::uint64_t bytes) {
  roll_to(now);
  bytes_ += bytes;
}

std::uint64_t GuestSli::poll_retransmits() {
  if (!retx_source_) return 0;
  const std::uint64_t cur = retx_source_();
  if (!retx_primed_) {
    retx_primed_ = true;
    last_retx_ = cur;
    return 0;
  }
  // QP switch-over during migration can reset the underlying counters;
  // clamp the delta at zero rather than wrapping.
  const std::uint64_t d = cur >= last_retx_ ? cur - last_retx_ : 0;
  last_retx_ = cur;
  return d;
}

void GuestSli::emit(sim::TimeNs end) {
  SliWindow w;
  w.start = win_start_;
  w.end = end;
  w.phase = phase_;
  w.precopy_iter = phase_ == ServicePhase::precopy ? precopy_iter_ : -1;
  w.msgs = msgs_;
  w.bytes = bytes_;
  w.retransmits = poll_retransmits();
  if (msgs_ > 0) {
    w.p50_ns = rtt_.percentile(50);
    w.p99_ns = rtt_.percentile(99);
    w.p999_ns = rtt_.percentile(99.9);
    w.max_ns = rtt_.max();
  }

  if (phase_ == ServicePhase::idle) {
    // Idle windows feed the baseline the attribution measures against.
    baseline_rtt_.merge(rtt_);
    baseline_bytes_ += static_cast<double>(bytes_);
    baseline_time_ += w.duration();
  } else if (phase_ == ServicePhase::recovery && resume_at_ >= 0 &&
             recovery_ns_ < 0 && w.msgs >= cfg_.min_recovery_msgs) {
    const std::int64_t base_p99 = baseline_rtt_.percentile(99);
    if (base_p99 <= 0 ||
        static_cast<double>(w.p99_ns) <=
            static_cast<double>(base_p99) * cfg_.recovery_factor) {
      recovery_ns_ = w.end - resume_at_;
      phase_ = ServicePhase::recovery;  // this window stays recovery...
      closed_.push_back(w);
      hub_.window_closed(id_, w);
      // ...and the guest is idle again from here on.
      phase_ = ServicePhase::idle;
      precopy_iter_ = -1;
      win_start_ = end;
      rtt_.reset();
      msgs_ = 0;
      bytes_ = 0;
      return;
    }
  }

  closed_.push_back(w);
  hub_.window_closed(id_, w);
  win_start_ = end;
  rtt_.reset();
  msgs_ = 0;
  bytes_ = 0;
}

void GuestSli::roll_to(sim::TimeNs now) {
  if (now < win_start_ + cfg_.window) return;
  if (msgs_ == 0 && bytes_ == 0) {
    // Nothing accumulated: collapse the whole quiet stretch into one
    // window instead of emitting a run of empties. The timeline still
    // tiles; the boundary lands on the window grid relative to win_start_.
    const std::int64_t k = (now - win_start_) / cfg_.window;
    emit(win_start_ + k * cfg_.window);
    return;
  }
  while (now >= win_start_ + cfg_.window) {
    emit(win_start_ + cfg_.window);
  }
}

void GuestSli::close_at(sim::TimeNs at) {
  roll_to(at);
  if (at > win_start_) emit(at);
  // at == win_start_: zero-length window, nothing to record.
}

void GuestSli::set_phase(sim::TimeNs now, ServicePhase p, std::int32_t iter) {
  if (p == phase_ && iter == precopy_iter_) return;
  close_at(now);
  phase_ = p;
  precopy_iter_ = iter;
}

// ---------------------------------------------------------------------------
// SliHub
// ---------------------------------------------------------------------------

SliHub& SliHub::global() {
  static SliHub hub;
  return hub;
}

GuestSli* SliHub::guest(std::uint32_t id, sim::TimeNs now) {
  if (!enabled()) return nullptr;
  auto& slot = guests_[id];
  if (!slot) slot.reset(new GuestSli(*this, id, cfg_, now));
  return slot.get();
}

GuestSli* SliHub::find(std::uint32_t id) {
  auto it = guests_.find(id);
  return it == guests_.end() ? nullptr : it->second.get();
}

void SliHub::set_retransmit_source(std::uint32_t id, sim::TimeNs now,
                                   std::function<std::uint64_t()> fn) {
  GuestSli* g = guest(id, now);
  if (!g) return;
  g->retx_source_ = std::move(fn);
  g->retx_primed_ = false;
}

void SliHub::on_migration_start(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  g->set_phase(now, ServicePhase::precopy, 0);
  g->mig_start_ = now;
  g->freeze_at_ = -1;
  g->resume_at_ = -1;
  g->recovery_ns_ = -1;
}

void SliHub::on_precopy_iteration(std::uint32_t id, sim::TimeNs now, std::int32_t iter) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  g->set_phase(now, ServicePhase::precopy, iter);
}

void SliHub::on_freeze(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  g->set_phase(now, ServicePhase::frozen, -1);
  g->freeze_at_ = now;
}

void SliHub::on_resume(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  g->set_phase(now, ServicePhase::recovery, -1);
  g->resume_at_ = now;
}

void SliHub::on_postcopy_resume(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  g->set_phase(now, ServicePhase::postcopy, -1);
  g->resume_at_ = now;
}

void SliHub::on_postcopy_drained(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  if (g->phase_ == ServicePhase::postcopy) {
    g->set_phase(now, ServicePhase::recovery, -1);
  }
}

void SliHub::on_migration_end(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  if (g->phase_ != ServicePhase::recovery) {
    // Abort / failure before resume: the service kept running (or was
    // rolled back) on the source; attribution-wise it is idle again.
    g->set_phase(now, ServicePhase::idle, -1);
  }
}

void SliHub::on_ft_protected(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  g->set_phase(now, ServicePhase::ft_buffered, -1);
}

void SliHub::on_ft_released(std::uint32_t id, sim::TimeNs now) {
  GuestSli* g = enabled() ? find(id) : nullptr;
  if (!g) return;
  if (g->phase_ == ServicePhase::ft_buffered) {
    g->set_phase(now, ServicePhase::idle, -1);
  }
}

void SliHub::flush(sim::TimeNs now) {
  for (auto& [id, g] : guests_) g->close_at(now);
}

BrownoutAttribution SliHub::attribution(std::uint32_t id) const {
  BrownoutAttribution a;
  auto it = guests_.find(id);
  if (it == guests_.end()) return a;
  const GuestSli& g = *it->second;
  if (g.mig_start_ < 0) return a;
  a.valid = true;
  a.migration_start = g.mig_start_;
  a.freeze_at = g.freeze_at_;
  a.resume_at = g.resume_at_;
  a.recovery_ns = g.recovery_ns_;
  a.baseline_p99_ns = g.baseline_rtt_.percentile(99);
  a.baseline_goodput_bps =
      g.baseline_time_ > 0
          ? g.baseline_bytes_ * 8.0 * sim::kSecond / static_cast<double>(g.baseline_time_)
          : 0;

  // Per-iteration p99 + the goodput-loss integral over the episode.
  std::map<std::int32_t, Histogram> iters;
  for (const SliWindow& w : g.closed_) {
    if (w.start < g.mig_start_) continue;
    if (w.phase == ServicePhase::precopy || w.phase == ServicePhase::frozen ||
        w.phase == ServicePhase::postcopy || w.phase == ServicePhase::recovery) {
      a.retransmits += w.retransmits;
      const double loss_bps = a.baseline_goodput_bps - w.goodput_bps();
      if (loss_bps > 0) {
        a.goodput_loss_bytes +=
            loss_bps / 8.0 * sim::to_sec(w.duration());
      }
    }
    if (w.phase == ServicePhase::precopy && w.precopy_iter >= 0 && w.msgs > 0) {
      auto [hit, inserted] = iters.try_emplace(w.precopy_iter, 0);
      (void)inserted;
      // Window summaries, not raw samples: approximate the iteration p99
      // by the max of its windows' p99s (conservative, deterministic).
      hit->second.record(w.p99_ns);
    }
  }
  for (auto& [iter, h] : iters) {
    BrownoutAttribution::IterInflation it2;
    it2.iter = iter;
    it2.p99_ns = h.max();
    it2.inflation = a.baseline_p99_ns > 0
                        ? static_cast<double>(it2.p99_ns) /
                              static_cast<double>(a.baseline_p99_ns)
                        : 0;
    a.precopy_p99.push_back(it2);
  }
  return a;
}

void SliHub::window_closed(std::uint32_t id, const SliWindow& w) {
  if (slo_) slo_->on_window(id, w);
}

std::vector<std::uint32_t> SliHub::guest_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(guests_.size());
  for (const auto& [id, g] : guests_) out.push_back(id);
  return out;
}

std::string SliHub::export_csv() const {
  std::string out =
      "guest,start_ns,end_ns,phase,precopy_iter,msgs,bytes,retransmits,"
      "p50_ns,p99_ns,p999_ns,max_ns,goodput_bps,retx_rate\n";
  char buf[320];
  for (const auto& [id, g] : guests_) {
    for (const SliWindow& w : g->closed_) {
      std::snprintf(buf, sizeof buf,
                    "%u,%" PRId64 ",%" PRId64 ",%s,%d,%" PRIu64 ",%" PRIu64
                    ",%" PRIu64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                    ",%.1f,%.1f\n",
                    id, w.start, w.end, service_phase_name(w.phase),
                    w.precopy_iter, w.msgs, w.bytes, w.retransmits, w.p50_ns,
                    w.p99_ns, w.p999_ns, w.max_ns, w.goodput_bps(),
                    w.retx_rate());
      out += buf;
    }
  }
  return out;
}

void SliHub::clear() {
  guests_.clear();
  slo_ = nullptr;
}

}  // namespace migr::obs
