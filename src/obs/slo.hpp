// Declarative SLO engine over the SLI window stream.
//
// An SLO spec is a compact string (CLI-friendly, documented in DESIGN.md
// §12):
//
//     spec  := rule (';' rule)*
//     rule  := field (',' field)*
//     field := name=<id>                      (default: the objective text)
//            | p50<DUR | p99<DUR | p999<DUR  (latency objective)
//            | goodput>RATE                  (throughput objective)
//            | retx_rate<NUM                 (retransmits per second)
//            | budget=FRACTION               (error budget, default 0.05)
//            | fast=DUR | slow=DUR           (burn windows, 500us / 5ms)
//            | burn=FACTOR                   (alert threshold, default 2)
//
//     DUR   := <number>(ns|us|ms|s)          RATE := <number>(bps|kbps|mbps|gbps)
//
// e.g.  --slo 'p99<60us,budget=0.05,fast=400us,slow=4ms,burn=2;goodput>1gbps'
//
// Evaluation is the multi-window burn-rate scheme from SRE practice: each
// closed SLI window is judged good or bad against the objective, good/bad
// *time* (duration-weighted — windows vary in length at phase boundaries)
// accumulates into two trailing windows, and
//
//     burn = (bad_time / total_time) / error_budget
//
// An alert fires when burn >= threshold over BOTH the fast and the slow
// trailing window (fast gives detection latency, slow suppresses blips),
// and resolves when the fast burn falls back below the threshold. Windows
// with no signal (no messages, not frozen) are skipped; *frozen* windows
// are unconditionally bad — a frozen service is failing its objective.
//
// Alerts land in three places: the alert log (the query surface below),
// the tracer ("slo" category instants), and the registry
// (slo.alerts{rule=...} counters). The scheduler consults burning() to
// defer migrations for tenants already eating their budget.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sli.hpp"
#include "sim/time.hpp"

namespace migr::obs {

struct SloRule {
  enum class Metric : std::uint8_t { p50, p99, p999, goodput, retx_rate };

  std::string name;          // label for alerts/metrics
  Metric metric = Metric::p99;
  bool want_below = true;    // objective: value < bound (false: value > bound)
  double bound = 0;          // ns, bps, or events/s depending on metric
  double budget = 0.05;      // allowed bad-time fraction
  sim::DurationNs fast = sim::usec(500);
  sim::DurationNs slow = sim::msec(5);
  double burn_threshold = 2.0;

  void write(common::Json& j) const;
};

/// Parse an SLO spec string. Returns false and sets *err on malformed input.
bool parse_slo_spec(std::string_view spec, std::vector<SloRule>* out, std::string* err);

struct SloAlert {
  std::uint32_t guest = 0;
  std::string rule;
  sim::TimeNs fired_at = 0;
  sim::TimeNs resolved_at = -1;  // -1: still active
  double burn_fast = 0;          // at fire time
  double burn_slow = 0;

  bool active() const noexcept { return resolved_at < 0; }
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules);

  /// Judge one closed SLI window (called by SliHub).
  void on_window(std::uint32_t guest, const SliWindow& w);

  // -- Query surface -------------------------------------------------------
  const std::vector<SloRule>& rules() const noexcept { return rules_; }
  const std::vector<SloAlert>& alerts() const noexcept { return alerts_; }
  /// Any rule currently alerting for this guest?
  bool burning(std::uint32_t guest) const;
  /// Current fast-window burn rate (max across rules) for a guest.
  double burn_rate(std::uint32_t guest) const;
  std::size_t active_alert_count() const;

 private:
  struct Burn {
    // Trailing good/bad time, evicted past the slow horizon.
    struct Slot {
      sim::TimeNs end;
      sim::DurationNs dur;
      sim::DurationNs bad;
    };
    std::deque<Slot> slots;
    bool alerting = false;
    std::size_t alert_ix = 0;  // into alerts_ while alerting
  };

  /// true = good, false = bad; no value = no signal, skip.
  bool judge(const SloRule& r, const SliWindow& w, bool* has_signal) const;
  double burn_over(const Burn& b, sim::TimeNs now, sim::DurationNs horizon,
                   double budget) const;

  std::vector<SloRule> rules_;
  // state[(guest, rule index)]
  std::map<std::pair<std::uint32_t, std::size_t>, Burn> state_;
  std::vector<SloAlert> alerts_;
};

/// The versioned SLO/SLI artifact ("kind":"slo_report","version":1):
/// rules, per-guest window timelines + brownout attribution, and the alert
/// log. `scenario` labels the run; `extra_json` is an optional object
/// *fragment* (e.g. a policy-comparison section) spliced into the root.
std::string export_slo_json(SliHub& hub, const SloEngine* engine,
                            const std::string& scenario,
                            const std::string& extra_json = {});

}  // namespace migr::obs
