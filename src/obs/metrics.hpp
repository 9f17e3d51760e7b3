// Process-wide metrics registry: named counters, gauges, and log-bucketed
// histograms (obs/histogram.hpp) with percentile queries, all supporting
// labels (qp=<qpn>, link=<a>-<b>, host=<h>, ...).
//
// Hot-path discipline: instrumented code resolves its instruments ONCE (at
// construction) and keeps the returned references; an increment is then a
// plain integer add with no lookup, hashing, or locking. The registry itself
// is only touched at registration and snapshot time.
//
// Kill switch: Registry::set_enabled(false) *before* instruments are
// created makes the registry hand out shared dummy cells that never appear
// in snapshots. Instruments created while enabled keep working.
//
// Besides first-class instruments, existing stats structs (PortStats,
// FetchStats, PerftestStats) register themselves as *sources*: callbacks
// polled at snapshot time, so one snapshot covers every layer without
// rewriting the structs' accessor APIs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace migr::obs {

/// Key/value labels attached to an instrument, e.g. {{"host","1"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t d = 1) noexcept { v_ += d; }
  std::uint64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  void add(double d) noexcept { v_ += d; }
  double value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  double v_ = 0;
};

// The registry's histogram IS obs::Histogram (obs/histogram.hpp): the
// log-bucketed sketch with an exact-sample reservoir. Registry clients use
// its observe() verb.

/// Point-in-time view of one instrument (or one polled source field).
struct SnapshotEntry {
  enum class Kind { counter, gauge, histogram, source };
  std::string name;  // full name including rendered labels
  Kind kind = Kind::counter;
  double value = 0;  // counter/gauge/source value; histogram mean
  // Histogram summary (kind == histogram only):
  std::uint64_t count = 0;
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  std::int64_t max = 0;
};

class Registry {
 public:
  /// The process-wide registry every layer instruments by default.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve (creating on first use) an instrument. The returned reference
  /// stays valid for the registry's lifetime — cache it.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {});

  /// A source is polled at snapshot time and contributes (field, value)
  /// pairs under `name`. Returns an id for unregister_source; any object
  /// whose lifetime is shorter than the registry MUST unregister.
  using SourceFn = std::function<std::vector<std::pair<std::string, double>>()>;
  std::uint64_t register_source(std::string name, const Labels& labels, SourceFn fn);
  void unregister_source(std::uint64_t id);

  /// All instruments plus polled sources, sorted by name. Deterministic.
  std::vector<SnapshotEntry> snapshot() const;
  /// Zero every instrument (registrations and sources are kept).
  void reset();
  /// Drop every instrument and source (tests / bench isolation).
  void clear();

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Human-readable metrics table (the `--metrics` output).
  void print(std::FILE* out) const;

  /// Render "name{k=v,k=v}"; used for snapshot names and by callers that
  /// want consistent key formatting.
  static std::string render_name(std::string_view name, const Labels& labels);

 private:
  mutable std::mutex mu_;  // guards the maps; never taken on the data path
  bool enabled_ = true;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;

  struct Source {
    std::string name;
    SourceFn fn;
  };
  std::map<std::uint64_t, Source> sources_;
  std::uint64_t next_source_id_ = 1;
};

}  // namespace migr::obs
