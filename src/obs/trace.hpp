// Sim-time phase tracer: begin/end spans and instant events stamped with
// simulated nanoseconds, kept in a bounded ring buffer and exportable as
// Chrome trace-event JSON (load the file in about://tracing or
// https://ui.perfetto.dev).
//
// Beyond flat spans, the tracer records a *causal event graph*: spans carry
// stable ids and parent links (exported inside args as "id"/"parent"), and
// flow events (Chrome phases 's'/'f') draw requester→responder arrows across
// hosts. A TraceContext — (trace_id, span_id) of the currently-executing
// causal scope — is kept on the tracer and piggybacked on fabric ctrl
// messages: the fabric captures the sender's context, and sets it around the
// receiver's handler so responder spans parent-link back to the requester
// (DESIGN.md §16).
//
// Library code emits with an explicit timestamp (every layer has the event
// loop at hand), so recording never reads a clock. The RAII ObsSpan helper
// covers the synchronous case by reading the tracer's bound SimTimeSource —
// useful for spans whose cost is charged while sim time advances underneath
// (e.g. a bench section), not for zero-duration callback bodies.
//
// Memory is bounded: the ring holds at most capacity events. Overflow either
// drops the oldest (counted in the `obs.trace.dropped` metric) or — with an
// incremental spill path configured — appends the full buffer to the spill
// file and clears the ring, so arbitrarily long drains keep every event on
// disk with O(capacity) memory. The spill file is kept valid JSON after
// every batch (the closing "]}"" is rewound and rewritten), so an aborted
// run still leaves a loadable trace.
//
// Off by default: nothing is recorded until set_enabled(true), so the hot
// path pays one predictable branch when tracing is off.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/result.hpp"

namespace migr::obs {

struct TraceEvent {
  enum class Phase : char {
    begin = 'B',
    end = 'E',
    instant = 'i',
    complete = 'X',
    flow_start = 's',
    flow_finish = 'f',
  };
  Phase ph = Phase::instant;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;        // complete events only
  std::uint64_t id = 0;           // span id / flow id; 0 = unassigned
  std::uint64_t parent = 0;       // parent span id; 0 = root
  std::string name;
  std::string cat;   // one Perfetto track per category
  std::string args;  // extra JSON object *fragment*, e.g. "\"qpn\":77"
};

/// Causal scope carried across ctrl messages: the trace (one per migration /
/// failover / workflow) and the span whose work caused the current code to
/// run. (0,0) = no active scope.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const noexcept { return span_id != 0; }
};

class Tracer {
 public:
  /// The process-wide tracer every layer emits to by default.
  static Tracer& global();

  explicit Tracer(std::size_t capacity = kDefaultCapacity);
  ~Tracer();

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Clock used by ObsSpan (and by callers without a loop reference). The
  /// source must outlive the tracer binding; rebind or pass nullptr to
  /// detach. Explicit-timestamp emission never touches it.
  void set_clock(const common::SimTimeSource* clock) noexcept { clock_ = clock; }
  const common::SimTimeSource* clock() const noexcept { return clock_; }

  /// Drops all recorded events and resizes the ring (`trace_max_events`).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Deterministic monotonic id source for spans and flows. Never returns 0.
  std::uint64_t new_id() noexcept { return ++next_id_; }

  /// Current causal scope; set/restored by the fabric around ctrl-message
  /// handlers and by controllers around phase work. Emitters read it to
  /// parent-link their spans.
  TraceContext context() const noexcept { return ctx_; }
  void set_context(TraceContext ctx) noexcept { ctx_ = ctx; }
  void clear_context() noexcept { ctx_ = {}; }

  void begin(std::int64_t ts_ns, std::string_view name, std::string_view cat,
             std::string args = {});
  void end(std::int64_t ts_ns, std::string_view name, std::string_view cat);
  void complete(std::int64_t ts_ns, std::int64_t dur_ns, std::string_view name,
                std::string_view cat, std::string args = {}, std::uint64_t id = 0,
                std::uint64_t parent = 0);
  void instant(std::int64_t ts_ns, std::string_view name, std::string_view cat,
               std::string args = {}, std::uint64_t id = 0, std::uint64_t parent = 0);
  /// Flow arrow endpoints: a 's' at the send side and a 'f' with the same
  /// flow id at the receive side. Emit both or neither (a dropped message
  /// emits neither), so every pair in the artifact matches.
  void flow_start(std::int64_t ts_ns, std::string_view name, std::string_view cat,
                  std::uint64_t flow_id, std::string args = {});
  void flow_finish(std::int64_t ts_ns, std::string_view name, std::string_view cat,
                   std::uint64_t flow_id, std::string args = {});

  /// Events currently held, oldest first. Ring overflow drops the oldest.
  std::vector<TraceEvent> events() const;
  std::size_t size() const noexcept { return buf_.size(); }
  std::uint64_t total_emitted() const noexcept { return total_; }
  /// Events no longer in memory: evicted (lost) plus spilled (on disk).
  std::uint64_t dropped() const noexcept { return total_ - spilled_ - buf_.size(); }
  std::uint64_t spilled() const noexcept { return spilled_; }
  void clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}). Timestamps are in
  /// microseconds as the format requires; each event's args carry the exact
  /// ts_ns (and dur_ns for spans) so tools can recover full precision.
  std::string export_chrome_json() const;
  common::Status write_chrome_json(const std::string& path);

  /// Bounded-memory mode: when the ring fills, append the buffer to `path`
  /// and clear it instead of evicting. The file is valid Chrome JSON after
  /// every spill. write_chrome_json(path) / flush() to the same path spill
  /// the remainder and finalize. Pass "" to disable.
  common::Status set_incremental_path(const std::string& path);
  bool incremental() const noexcept { return inc_file_ != nullptr; }

  /// Abort safety net: with a flush path configured, flush() rewrites the
  /// full buffer to that file as a complete, well-formed Chrome trace.
  /// Abort paths (migration abort/failure, ScenarioRunner teardown) call it
  /// so a run that never reaches its normal exit still leaves a loadable
  /// trace behind. Tools set the path as soon as they enable tracing;
  /// repeated flushes simply overwrite with a more complete buffer.
  void set_flush_path(std::string path) { flush_path_ = std::move(path); }
  const std::string& flush_path() const noexcept { return flush_path_; }
  /// Write the buffer to the flush path; ok() no-op when no path is set.
  common::Status flush();

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  void push(TraceEvent ev);
  void append_event_json(common::Json& j, const TraceEvent& ev,
                         std::map<std::string, int>& tids) const;
  void append_stats_json(common::Json& j) const;
  common::Status spill_buffer();
  void close_incremental();

  bool enabled_ = false;
  const common::SimTimeSource* clock_ = nullptr;
  std::string flush_path_;
  std::vector<TraceEvent> buf_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once the ring has wrapped
  std::uint64_t total_ = 0;
  std::uint64_t next_id_ = 0;
  TraceContext ctx_;
  // Incremental spill state: open file, category→tid map persisted across
  // batches, and whether any event has been written yet.
  std::FILE* inc_file_ = nullptr;
  std::string inc_path_;
  std::map<std::string, int> inc_tids_;
  bool inc_first_ = true;
  std::uint64_t spilled_ = 0;
};

/// RAII span against the tracer's bound clock: records a complete event
/// covering [construction, destruction] in sim time. No-op when tracing is
/// off or no clock is bound.
class ObsSpan {
 public:
  ObsSpan(Tracer& tracer, std::string name, std::string cat, std::string args = {})
      : tracer_(tracer), name_(std::move(name)), cat_(std::move(cat)),
        args_(std::move(args)) {
    active_ = tracer_.enabled() && tracer_.clock() != nullptr;
    if (active_) start_ns_ = tracer_.clock()->now_ns();
  }
  ~ObsSpan() {
    if (active_) {
      const std::int64_t end_ns = tracer_.clock()->now_ns();
      tracer_.complete(start_ns_, end_ns - start_ns_, name_, cat_, std::move(args_));
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  Tracer& tracer_;
  std::string name_;
  std::string cat_;
  std::string args_;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
};

/// RAII causal scope: installs a TraceContext on the tracer and restores the
/// previous one on exit. Controllers wrap phase work in one so ctrl sends
/// (and the responder spans they cause) link back to the phase span.
class CtxScope {
 public:
  CtxScope(Tracer& tracer, TraceContext ctx) : tracer_(tracer), prev_(tracer.context()) {
    tracer_.set_context(ctx);
  }
  ~CtxScope() { tracer_.set_context(prev_); }
  CtxScope(const CtxScope&) = delete;
  CtxScope& operator=(const CtxScope&) = delete;

 private:
  Tracer& tracer_;
  TraceContext prev_;
};

}  // namespace migr::obs
