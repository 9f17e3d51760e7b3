// Blackout critical-path attribution (DESIGN.md §16).
//
// During a migration (or FT failover) the instrumented layers record *causal
// intervals* — [start, end] spans of sim time during which one named
// dependency was the reason forward progress had to wait: a checkpoint dump,
// one chunk's time on the wire, a retry backoff, a restore step, a partner
// QP re-establishment round-trip. CriticalPath::resolve() then walks the
// interval set backwards from the window end (resume_at) to its start
// (freeze_at, or killed_at for failover), at each step choosing the interval
// that reaches the cursor and jumping to its start; uncovered gaps become
// `slack` edges. The result is a chain of edges that tiles the window
// exactly — sum(edge durations) == window length *by construction* — so
// every nanosecond of service_blackout() is attributed to a named edge
// class, and the per-class totals are a lossless decomposition CI can pin.
//
// The recorder is plain vector appends of already-known sim times: with the
// feature off nothing is collected, and with it on the simulation timeline
// is untouched (no clocks read, no events scheduled, no RNG drawn) — the
// determinism tests pin critical-path-on == critical-path-off byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace migr::obs {

/// Named classes of blackout time. Keep in sync with edge_class_name(),
/// DESIGN.md §16, and tools/validate_artifacts.py.
enum class EdgeClass : std::uint8_t {
  wbs_wait = 0,     // wait-before-stop quiesce that leaked into the blackout
  ckpt_dump,        // checkpoint dump (RDMA + other resource serialization)
  chunk_wire,       // image bytes in flight: a delivered transfer attempt
  chunk_retry,      // lost transfer attempt + its retry backoff
  restore_apply,    // destination applying the image (CRIU-style restore)
  qp_reestablish,   // RDMA restore + partner QP switch round-trips
  ctrl_rtt,         // control-plane round-trips (e.g. failure detection)
  scheduler_hold,   // transfer pacing / stream serialization hold
  slack,            // window time no recorded interval explains
};

inline constexpr std::size_t kEdgeClassCount = static_cast<std::size_t>(EdgeClass::slack) + 1;

const char* edge_class_name(EdgeClass cls);

/// One recorded causal interval (recorder input).
struct CpInterval {
  std::int64_t start = 0;
  std::int64_t end = 0;
  EdgeClass cls = EdgeClass::slack;
  std::string label;  // short detail, e.g. "chunk 3 try 2"
};

/// One edge on the resolved path (tiles the window, in time order).
struct CpEdge {
  std::int64_t start = 0;
  std::int64_t end = 0;
  EdgeClass cls = EdgeClass::slack;
  std::string label;
  std::int64_t dur() const noexcept { return end - start; }
};

/// The resolved attribution for one blackout window.
struct CriticalPath {
  bool valid = false;
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;
  std::vector<CpEdge> edges;                      // tile [window_start, window_end]
  std::int64_t by_class[kEdgeClassCount] = {};    // per-class totals; sum == total()

  std::int64_t total() const noexcept { return window_end - window_start; }
  /// Largest non-slack class (ties broken by enum order); slack only when
  /// nothing else was recorded.
  EdgeClass dominant() const noexcept;
  /// JSON object: {"window_start_ns":..,"window_end_ns":..,"total_ns":..,
  ///  "dominant":"..","by_class":{..all classes..},"edges":[..]}
  void write(common::Json& j) const;
};

/// Interval collector fed directly by the instrumented layers (the blackout
/// slice push, the transfer mux). Disabled, add() is a no-op.
class CpRecorder {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  void add(std::int64_t start, std::int64_t end, EdgeClass cls, std::string label = {}) {
    if (!enabled_ || end <= start) return;
    intervals_.push_back(CpInterval{start, end, cls, std::move(label)});
  }

  void clear() { intervals_.clear(); }
  const std::vector<CpInterval>& intervals() const noexcept { return intervals_; }

  /// Backward-walk the recorded intervals over [window_start, window_end].
  /// Always returns a tiling of the window (slack fills gaps); valid=false
  /// only for an empty/inverted window.
  CriticalPath resolve(std::int64_t window_start, std::int64_t window_end) const;

 private:
  bool enabled_ = false;
  std::vector<CpInterval> intervals_;
};

}  // namespace migr::obs
