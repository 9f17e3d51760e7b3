#include "obs/slo.hpp"

#include <cctype>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace migr::obs {
namespace {

const char* metric_name(SloRule::Metric m) {
  switch (m) {
    case SloRule::Metric::p50: return "p50";
    case SloRule::Metric::p99: return "p99";
    case SloRule::Metric::p999: return "p999";
    case SloRule::Metric::goodput: return "goodput";
    case SloRule::Metric::retx_rate: return "retx_rate";
  }
  return "?";
}

bool parse_duration(std::string_view s, double* out_ns) {
  std::size_t i = 0;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' || s[i] == '-' ||
          s[i] == '+' || s[i] == 'e' || s[i] == 'E')) {
    ++i;
  }
  if (i == 0) return false;
  const double v = std::strtod(std::string(s.substr(0, i)).c_str(), nullptr);
  std::string_view unit = s.substr(i);
  if (unit == "ns") {
    *out_ns = v;
  } else if (unit == "us") {
    *out_ns = v * sim::kMicrosecond;
  } else if (unit == "ms") {
    *out_ns = v * sim::kMillisecond;
  } else if (unit == "s") {
    *out_ns = v * sim::kSecond;
  } else {
    return false;
  }
  return true;
}

bool parse_rate(std::string_view s, double* out_bps) {
  std::size_t i = 0;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' || s[i] == '-' ||
          s[i] == '+' || s[i] == 'e' || s[i] == 'E')) {
    ++i;
  }
  if (i == 0) return false;
  const double v = std::strtod(std::string(s.substr(0, i)).c_str(), nullptr);
  std::string_view unit = s.substr(i);
  if (unit == "bps") {
    *out_bps = v;
  } else if (unit == "kbps") {
    *out_bps = v * 1e3;
  } else if (unit == "mbps") {
    *out_bps = v * 1e6;
  } else if (unit == "gbps") {
    *out_bps = v * 1e9;
  } else {
    return false;
  }
  return true;
}

bool fail(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

}  // namespace

void SloRule::write(common::Json& j) const {
  std::string objective = metric_name(metric);
  objective += want_below ? "<" : ">";
  common::Json(objective).fixed(bound, 1);  // e.g. "p99<60000.0"
  j.obj().key("name").val(name).key("metric").val(metric_name(metric));
  j.key("objective").val(objective).key("budget").fixed(budget, 4);
  j.key("fast_ns").val(fast).key("slow_ns").val(slow);
  j.key("burn_threshold").fixed(burn_threshold, 2).end();
}

bool parse_slo_spec(std::string_view spec, std::vector<SloRule>* out, std::string* err) {
  out->clear();
  std::size_t rule_start = 0;
  while (rule_start <= spec.size()) {
    std::size_t rule_end = spec.find(';', rule_start);
    if (rule_end == std::string_view::npos) rule_end = spec.size();
    std::string_view rule_sv = spec.substr(rule_start, rule_end - rule_start);
    rule_start = rule_end + 1;
    if (rule_sv.empty()) {
      if (rule_end == spec.size()) break;
      continue;
    }

    SloRule r;
    bool have_objective = false;
    std::size_t f = 0;
    while (f <= rule_sv.size()) {
      std::size_t fe = rule_sv.find(',', f);
      if (fe == std::string_view::npos) fe = rule_sv.size();
      std::string_view field = rule_sv.substr(f, fe - f);
      f = fe + 1;
      if (field.empty()) {
        if (fe == rule_sv.size()) break;
        continue;
      }

      // key=value fields first.
      std::size_t eq = field.find('=');
      std::size_t lt = field.find('<');
      std::size_t gt = field.find('>');
      if (eq != std::string_view::npos && lt == std::string_view::npos &&
          gt == std::string_view::npos) {
        std::string_view key = field.substr(0, eq);
        std::string val{field.substr(eq + 1)};
        if (key == "name") {
          r.name = val;
        } else if (key == "budget") {
          r.budget = std::strtod(val.c_str(), nullptr);
          if (r.budget <= 0 || r.budget > 1)
            return fail(err, "budget must be in (0,1]: " + val);
        } else if (key == "fast" || key == "slow") {
          double ns = 0;
          if (!parse_duration(val, &ns))
            return fail(err, "bad duration: " + val);
          (key == "fast" ? r.fast : r.slow) = static_cast<sim::DurationNs>(ns);
        } else if (key == "burn") {
          r.burn_threshold = std::strtod(val.c_str(), nullptr);
          if (r.burn_threshold <= 0)
            return fail(err, "burn threshold must be > 0: " + val);
        } else {
          return fail(err, "unknown field: " + std::string(key));
        }
        continue;
      }

      // Objective: metric<bound or metric>bound.
      const std::size_t cmp = std::min(lt, gt);
      if (cmp == std::string_view::npos)
        return fail(err, "not an objective or k=v field: " + std::string(field));
      std::string_view metric = field.substr(0, cmp);
      std::string_view bound = field.substr(cmp + 1);
      r.want_below = (cmp == lt);
      if (metric == "p50") {
        r.metric = SloRule::Metric::p50;
      } else if (metric == "p99") {
        r.metric = SloRule::Metric::p99;
      } else if (metric == "p999") {
        r.metric = SloRule::Metric::p999;
      } else if (metric == "goodput") {
        r.metric = SloRule::Metric::goodput;
      } else if (metric == "retx_rate") {
        r.metric = SloRule::Metric::retx_rate;
      } else {
        return fail(err, "unknown metric: " + std::string(metric));
      }
      double v = 0;
      if (r.metric == SloRule::Metric::goodput) {
        if (!parse_rate(bound, &v)) return fail(err, "bad rate: " + std::string(bound));
      } else if (r.metric == SloRule::Metric::retx_rate) {
        v = std::strtod(std::string(bound).c_str(), nullptr);
      } else {
        if (!parse_duration(bound, &v))
          return fail(err, "bad duration: " + std::string(bound));
      }
      r.bound = v;
      if (r.name.empty()) r.name = std::string(field);
      have_objective = true;
    }

    if (!have_objective)
      return fail(err, "rule without an objective: " + std::string(rule_sv));
    if (r.fast > r.slow) return fail(err, "fast window exceeds slow window");
    out->push_back(std::move(r));
    if (rule_end == spec.size()) break;
  }
  if (out->empty()) return fail(err, "empty SLO spec");
  return true;
}

// ---------------------------------------------------------------------------
// SloEngine
// ---------------------------------------------------------------------------

SloEngine::SloEngine(std::vector<SloRule> rules) : rules_(std::move(rules)) {}

bool SloEngine::judge(const SloRule& r, const SliWindow& w, bool* has_signal) const {
  *has_signal = true;
  // A frozen service is failing whatever it promised.
  if (w.phase == ServicePhase::frozen) return false;
  double v = 0;
  switch (r.metric) {
    case SloRule::Metric::p50:
    case SloRule::Metric::p99:
    case SloRule::Metric::p999:
      if (w.msgs == 0) {
        *has_signal = false;  // no completions, not frozen: no latency signal
        return true;
      }
      v = static_cast<double>(r.metric == SloRule::Metric::p50    ? w.p50_ns
                              : r.metric == SloRule::Metric::p99 ? w.p99_ns
                                                                 : w.p999_ns);
      break;
    case SloRule::Metric::goodput:
      v = w.goodput_bps();
      break;
    case SloRule::Metric::retx_rate:
      v = w.retx_rate();
      break;
  }
  return r.want_below ? v < r.bound : v > r.bound;
}

double SloEngine::burn_over(const Burn& b, sim::TimeNs now, sim::DurationNs horizon,
                            double budget) const {
  const sim::TimeNs cutoff = now - horizon;
  sim::DurationNs total = 0, bad = 0;
  for (auto it = b.slots.rbegin(); it != b.slots.rend(); ++it) {
    if (it->end <= cutoff) break;
    total += it->dur;
    bad += it->bad;
  }
  if (total <= 0) return 0;
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

void SloEngine::on_window(std::uint32_t guest, const SliWindow& w) {
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const SloRule& r = rules_[ri];
    bool has_signal = false;
    const bool good = judge(r, w, &has_signal);
    Burn& b = state_[{guest, ri}];
    if (has_signal) {
      b.slots.push_back({w.end, w.duration(), good ? 0 : w.duration()});
    }
    // Evict past the slow horizon.
    const sim::TimeNs cutoff = w.end - r.slow;
    while (!b.slots.empty() && b.slots.front().end <= cutoff) b.slots.pop_front();

    const double burn_fast = burn_over(b, w.end, r.fast, r.budget);
    const double burn_slow = burn_over(b, w.end, r.slow, r.budget);
    if (!b.alerting && burn_fast >= r.burn_threshold && burn_slow >= r.burn_threshold) {
      b.alerting = true;
      b.alert_ix = alerts_.size();
      alerts_.push_back({guest, r.name, w.end, -1, burn_fast, burn_slow});
      Registry::global()
          .counter("slo.alerts", {{"rule", r.name}})
          .inc();
      Tracer::global().instant(w.end, "slo_alert:" + r.name, "slo",
                               "\"guest\":" + std::to_string(guest));
    } else if (b.alerting && burn_fast < r.burn_threshold) {
      b.alerting = false;
      alerts_[b.alert_ix].resolved_at = w.end;
      Tracer::global().instant(w.end, "slo_resolve:" + r.name, "slo",
                               "\"guest\":" + std::to_string(guest));
    }
  }
}

bool SloEngine::burning(std::uint32_t guest) const {
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    auto it = state_.find({guest, ri});
    if (it != state_.end() && it->second.alerting) return true;
  }
  return false;
}

double SloEngine::burn_rate(std::uint32_t guest) const {
  double best = 0;
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    auto it = state_.find({guest, ri});
    if (it == state_.end() || it->second.slots.empty()) continue;
    const Burn& b = it->second;
    const double v = burn_over(b, b.slots.back().end, rules_[ri].fast, rules_[ri].budget);
    if (v > best) best = v;
  }
  return best;
}

std::size_t SloEngine::active_alert_count() const {
  std::size_t n = 0;
  for (const auto& a : alerts_) n += a.active() ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Artifact export
// ---------------------------------------------------------------------------

std::string export_slo_json(SliHub& hub, const SloEngine* engine,
                            const std::string& scenario,
                            const std::string& extra_json) {
  std::string out;
  common::Json j(out);
  j.obj().key("kind").val("slo_report").key("version").val(1).key("scenario").val(scenario);
  j.key("window_ns").val(hub.config().window);

  j.key("rules").arr();
  if (engine) {
    for (const SloRule& r : engine->rules()) r.write(j);
  }
  j.end();

  j.key("guests").arr();
  for (std::uint32_t id : hub.guest_ids()) {
    GuestSli* g = hub.find(id);
    if (!g) continue;
    j.obj().key("guest").val(id).key("windows").arr();
    for (const SliWindow& w : g->windows()) {
      j.obj().key("start_ns").val(w.start).key("end_ns").val(w.end);
      j.key("phase").val(service_phase_name(w.phase)).key("precopy_iter").val(w.precopy_iter);
      j.key("msgs").val(w.msgs).key("bytes").val(w.bytes).key("retransmits").val(w.retransmits);
      j.key("p50_ns").val(w.p50_ns).key("p99_ns").val(w.p99_ns);
      j.key("p999_ns").val(w.p999_ns).key("max_ns").val(w.max_ns);
      j.key("goodput_bps").fixed(w.goodput_bps(), 1).key("retx_rate").fixed(w.retx_rate(), 1);
      j.end();
    }
    j.end().key("attribution");
    hub.attribution(id).write(j);
    j.end();
  }
  j.end();

  j.key("alerts").arr();
  if (engine) {
    for (const SloAlert& a : engine->alerts()) {
      j.obj().key("guest").val(a.guest).key("rule").val(a.rule);
      j.key("fired_at_ns").val(a.fired_at).key("resolved_at_ns").val(a.resolved_at);
      j.key("burn_fast").fixed(a.burn_fast, 2).key("burn_slow").fixed(a.burn_slow, 2).end();
    }
  }
  j.end();

  j.raw(extra_json).end();
  out += '\n';
  return out;
}

}  // namespace migr::obs
