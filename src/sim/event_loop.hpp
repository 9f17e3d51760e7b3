// Discrete-event simulation core.
//
// One EventLoop drives an entire simulated deployment (all hosts, NICs,
// links, processes). Events at equal timestamps fire in scheduling order
// (stable), which makes every run bit-for-bit reproducible — a property the
// migration tests lean on when asserting exact WR-ID sequences across a
// migration.
//
// The dispatch path is allocation-free for the common case: callbacks are
// stored in a small-buffer-optimised EventFn (oversized closures fall back
// to a size-classed free-list pool), cancellation is a generation-counter
// check instead of a per-event shared_ptr<bool>, and the ready queue is a
// binary heap of 24-byte POD entries over a slot table that recycles
// storage. A handle-free post_at() covers fire-and-forget events (pump
// slots, held-back packets, control messages) without any handle
// bookkeeping.
//
// The heap holds only what can fire next. An EventLane queues one-shot
// events whose times never decrease (the fabric's per-port delivery lane):
// each takes its sequence number when it is queued, and only the lane's
// head waits in the heap, under that number, so every event fires at the
// same instant and in the same order as if each had been posted alone. A
// cancelled event's entry stays in the heap until it reaches the top,
// unless cancelled entries come to outnumber the live ones: then the heap
// is rebuilt without them.
//
// A parkable periodic task leaves the heap after a tick that found no work,
// and its skipped ticks cost nothing. It keeps its grid: wake() pushes its
// next tick at the first grid instant at or after now(), with a fresh
// sequence number like any other push (DESIGN.md §10).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/clock.hpp"
#include "common/ring.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace migr::sim {

namespace detail {

/// Free-list pool for closures that exceed EventFn's inline buffer.
void* fn_pool_alloc(std::size_t n);
void fn_pool_free(void* p, std::size_t n) noexcept;

/// Move-only type-erased callback with inline small-buffer storage. Unlike
/// std::function it never copies, and oversized closures go through the
/// size-classed pool above instead of raw operator new.
class EventFn {
 public:
  static constexpr std::size_t kInline = 152;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fd = std::decay_t<F>;
    if constexpr (sizeof(Fd) <= kInline && alignof(Fd) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fd(std::forward<F>(f));
      ops_ = &InlineOps<Fd>::ops;
    } else {
      void* mem = fn_pool_alloc(sizeof(Fd));
      Fd* p = ::new (mem) Fd(std::forward<F>(f));
      std::memcpy(storage_, &p, sizeof(p));
      ops_ = &HeapOps<Fd>::ops;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->call(storage_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void* storage);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  struct InlineOps {
    static void call(void* s) { (*std::launder(reinterpret_cast<F*>(s)))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* sp = std::launder(reinterpret_cast<F*>(src));
      ::new (dst) F(std::move(*sp));
      sp->~F();
    }
    static void destroy(void* s) noexcept { std::launder(reinterpret_cast<F*>(s))->~F(); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F* get(void* s) noexcept {
      F* p;
      std::memcpy(&p, s, sizeof(p));
      return p;
    }
    static void call(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      std::memcpy(dst, src, sizeof(F*));
    }
    static void destroy(void* s) noexcept {
      F* p = get(s);
      p->~F();
      fn_pool_free(p, sizeof(F));
    }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInline];
};

constexpr std::uint32_t kNoSlot = 0xFFFF'FFFF;

/// One scheduled callback. Slots are recycled through a free list; the
/// generation counter detects stale heap entries and stale handles.
struct Slot {
  std::uint32_t gen = 0;
  bool parked = false;    // parkable task off the heap until woken
  DurationNs period = 0;  // > 0: periodic task, fn retained across firings
  TimeNs next_at = 0;     // parked: its next grid instant when it parked
  EventFn fn;
};

/// Slot storage shared (via shared_ptr) between the loop and its handles, so
/// a handle outliving the loop degrades to a no-op instead of dangling.
/// std::deque keeps slot references stable while the table grows.
struct SlotTable {
  std::deque<Slot> slots;
  std::vector<std::uint32_t> free_list;
  std::size_t cancelled = 0;        // heap entries of cancelled slots
  std::uint32_t running = kNoSlot;  // slot whose periodic fn is executing
  bool running_cancelled = false;   // cancel() arrived during that execution
  bool running_idle = false;        // that execution found no work
  bool running_woken = false;       // wake() arrived during that execution

  std::uint32_t acquire() {
    if (!free_list.empty()) {
      const std::uint32_t s = free_list.back();
      free_list.pop_back();
      return s;
    }
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t slot) {
    Slot& s = slots[slot];
    s.gen++;
    s.parked = false;
    s.period = 0;
    s.fn.reset();
    free_list.push_back(slot);
  }

  bool pending(std::uint32_t slot, std::uint32_t gen) const noexcept {
    if (slot >= slots.size() || slots[slot].gen != gen) return false;
    if (running == slot && running_cancelled) return false;
    return static_cast<bool>(slots[slot].fn);
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= slots.size() || slots[slot].gen != gen) return;
    if (running == slot) {
      // A periodic task cancelling itself from inside its own callback: the
      // fn is executing, so defer the release until it returns.
      running_cancelled = true;
      return;
    }
    if (!slots[slot].parked) cancelled++;  // its heap entry is now dead
    release(slot);
  }

  std::size_t allocated() const noexcept { return slots.size() - free_list.size(); }
};

}  // namespace detail

/// Cancellation handle for a scheduled event or periodic task. Destroying
/// the handle does NOT cancel (handles are observers); call cancel().
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() noexcept {
    if (auto table = table_.lock()) table->cancel(slot_, gen_);
  }
  /// True while the event is still scheduled (not yet fired, not cancelled).
  /// A parked task counts as scheduled.
  bool pending() const noexcept {
    auto table = table_.lock();
    return table && table->pending(slot_, gen_);
  }

 private:
  friend class EventLoop;
  EventHandle(const std::shared_ptr<detail::SlotTable>& table, std::uint32_t slot,
              std::uint32_t gen)
      : table_(table), slot_(slot), gen_(gen) {}

  std::weak_ptr<detail::SlotTable> table_;
  std::uint32_t slot_ = detail::kNoSlot;
  std::uint32_t gen_ = 0;
};

class EventLoop : public common::SimTimeSource {
 public:
  EventLoop();

  TimeNs now() const noexcept { return now_; }
  /// SimTimeSource: lets the logger and tracer stamp output with sim time.
  std::int64_t now_ns() const noexcept override { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (clamped to now()).
  template <typename F>
  EventHandle schedule_at(TimeNs at, F&& fn) {
    return do_schedule(at < now_ ? now_ : at, 0, detail::EventFn(std::forward<F>(fn)));
  }

  /// Schedule `fn` after `delay` ns of simulated time.
  template <typename F>
  EventHandle schedule_in(DurationNs delay, F&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Schedule `fn` every `period` ns, first firing after `period` (or
  /// `first_delay` if given). The task repeats until cancelled.
  template <typename F>
  EventHandle schedule_every(DurationNs period, F&& fn, DurationNs first_delay = -1) {
    assert(period > 0);
    const DurationNs delay = first_delay >= 0 ? first_delay : period;
    return do_schedule(now_ + delay, period, detail::EventFn(std::forward<F>(fn)));
  }

  /// Like schedule_every, but `fn` returns whether its tick found work. A
  /// tick that returns false parks the task: it keeps its slot and its grid
  /// (first firing + k * period) but leaves the heap until wake(). Its
  /// skipped ticks do no work and take no sequence number.
  template <typename F>
  EventHandle schedule_parkable(DurationNs period, F&& fn, DurationNs first_delay = -1) {
    return schedule_every(
        period,
        [table = table_.get(), f = std::forward<F>(fn)]() mutable {
          if (!f()) table->running_idle = true;
        },
        first_delay);
  }

  /// Re-arm a parked task of this loop: its next tick enters the heap at the
  /// first instant of its grid at or after now(), with a fresh sequence
  /// number, so work that lands on that instant is seen there, after the
  /// waking event. Called from inside the task's own tick, it keeps the task
  /// armed whatever the tick returns. A no-op for armed, cancelled and
  /// one-shot events.
  void wake(const EventHandle& h);

  /// Fire-and-forget fast path: like schedule_at but returns no handle, so
  /// the hot paths (pump pacing, held-back packets) skip handle bookkeeping.
  template <typename F>
  void post_at(TimeNs at, F&& fn) {
    do_post(at < now_ ? now_ : at, next_seq_++, detail::EventFn(std::forward<F>(fn)));
  }
  template <typename F>
  void post_in(DurationNs delay, F&& fn) {
    post_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// The sequence number a post made now would take, taken without posting.
  std::uint64_t take_seq() noexcept { return next_seq_++; }
  /// post_at under a number from take_seq(): among events at `at` it fires
  /// as if it had been posted when the number was taken. The caller keeps
  /// (at, seq) from preceding the event being dispatched (EventLane does).
  template <typename F>
  void post_at_seq(TimeNs at, std::uint64_t seq, F&& fn) {
    assert(at >= now_ && seq < next_seq_);
    do_post(at, seq, detail::EventFn(std::forward<F>(fn)));
  }

  /// Run events until the queue is empty or stop() is called.
  /// Returns the number of events dispatched.
  std::uint64_t run();

  /// Run events with timestamp <= deadline; leaves now() == deadline unless
  /// stopped early. Returns the number of events dispatched.
  std::uint64_t run_until(TimeNs deadline);

  /// Convenience: run_until(now() + d).
  std::uint64_t run_for(DurationNs d) { return run_until(now_ + d); }

  /// Stop the current run()/run_until() after the in-flight event returns.
  void stop() noexcept { stopped_ = true; }

  bool empty() const noexcept { return table_->allocated() == 0; }
  /// Scheduled callbacks: one-shot events not yet fired and periodic tasks,
  /// parked ones included.
  std::size_t pending_events() const noexcept { return table_->allocated(); }
  /// Entries in the ready heap, live and cancelled.
  std::size_t heap_entries() const noexcept { return heap_.size(); }

  /// Events dispatched by this loop since construction.
  std::uint64_t events_dispatched() const noexcept { return dispatched_; }
  /// Wall-clock ns spent inside run()/run_until() — with sim time elapsed,
  /// this is the sim-vs-wall drift the registry exposes.
  std::uint64_t wall_ns_in_run() const noexcept { return wall_ns_; }

 private:
  struct HeapEntry {
    TimeNs at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  static constexpr TimeNs kForever = std::numeric_limits<TimeNs>::max();

  EventHandle do_schedule(TimeNs at, DurationNs period, detail::EventFn fn);
  void do_post(TimeNs at, std::uint64_t seq, detail::EventFn fn);
  void push_entry(TimeNs at, std::uint64_t seq, std::uint32_t slot);
  void pop_entry();
  /// Rebuild the heap without the entries of cancelled slots.
  void drop_cancelled();
  /// Dispatch the earliest live event at or before `deadline`; false if none.
  bool dispatch_one(TimeNs deadline);
  void account_run(TimeNs sim_start, std::int64_t wall_start_ns);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  std::shared_ptr<detail::SlotTable> table_;
  std::vector<HeapEntry> heap_;

  // Telemetry (process-wide registry; several loops aggregate).
  std::uint64_t dispatched_ = 0;
  std::uint64_t wall_ns_ = 0;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* sim_ns_counter_ = nullptr;
  obs::Counter* wall_ns_counter_ = nullptr;
  obs::Gauge* drift_gauge_ = nullptr;
};

/// A FIFO of one-shot events whose times never decrease, with only its head
/// in the loop's heap. Each event takes its sequence number when it is
/// queued and its head enters the heap under that number, so the lane's
/// events fire at the instants and in the order they would have if each
/// had been posted alone, while the heap holds one entry for the lane
/// however deep it is. `fire` is called with each item in turn. Storage
/// grows to the lane's high-water mark and is reused from then on. The
/// head's event points at the lane, so a lane never moves.
template <typename T, typename Fire>
class EventLane {
 public:
  EventLane(EventLoop& loop, Fire fire) : loop_(loop), fire_(std::move(fire)) {}
  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  bool empty() const noexcept { return q_.empty(); }
  std::size_t size() const noexcept { return q_.size(); }

  /// Queue `item` to fire at `at`: not before now(), nor before the time of
  /// the item queued last.
  void push(TimeNs at, T item) {
    assert(at >= loop_.now() && (q_.empty() || q_.back().at <= at));
    const bool idle = q_.empty();
    q_.push_back(Entry{at, loop_.take_seq(), std::move(item)});
    if (idle) arm();
  }

 private:
  struct Entry {
    TimeNs at = 0;
    std::uint64_t seq = 0;
    T item;
  };

  void arm() {
    const Entry& head = q_.front();
    loop_.post_at_seq(head.at, head.seq, [this] { fire_head(); });
  }

  void fire_head() {
    T item = std::move(q_.front().item);
    q_.pop_front();
    if (!q_.empty()) arm();
    fire_(std::move(item));
  }

  EventLoop& loop_;
  Fire fire_;
  common::GrowRing<Entry> q_;
};

}  // namespace migr::sim
