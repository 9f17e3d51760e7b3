#include "sim/event_loop.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <tuple>
#include <utility>

namespace migr::sim {

namespace detail {
namespace {

// Size classes for spilled closures. Anything larger than the biggest class
// is rare enough (one-off control-path lambdas) to hit operator new directly.
constexpr std::size_t kFnClasses[] = {256, 512, 1024};

int fn_class(std::size_t n) noexcept {
  for (int i = 0; i < 3; ++i) {
    if (n <= kFnClasses[i]) return i;
  }
  return -1;
}

// The sim is single-threaded per loop; thread_local keeps the pool safe for
// the odd test that spins loops on several threads. The destructor returns
// everything to the system so leak detection stays clean.
struct FnPool {
  std::vector<void*> free[3];
  ~FnPool() {
    for (auto& cls : free) {
      for (void* p : cls) ::operator delete(p);
    }
  }
};
thread_local FnPool g_fn_pool;

}  // namespace

void* fn_pool_alloc(std::size_t n) {
  const int cls = fn_class(n);
  if (cls < 0) return ::operator new(n);
  auto& free = g_fn_pool.free[cls];
  if (!free.empty()) {
    void* p = free.back();
    free.pop_back();
    return p;
  }
  return ::operator new(kFnClasses[cls]);
}

void fn_pool_free(void* p, std::size_t n) noexcept {
  const int cls = fn_class(n);
  if (cls < 0) {
    ::operator delete(p);
    return;
  }
  g_fn_pool.free[cls].push_back(p);
}

}  // namespace detail

namespace {
std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

EventLoop::EventLoop() : table_(std::make_shared<detail::SlotTable>()) {
  heap_.reserve(1024);
  auto& reg = obs::Registry::global();
  events_counter_ = &reg.counter("sim.events_dispatched");
  sim_ns_counter_ = &reg.counter("sim.sim_ns_advanced");
  wall_ns_counter_ = &reg.counter("sim.wall_ns_in_run");
  drift_gauge_ = &reg.gauge("sim.wall_per_sim_ns");
}

void EventLoop::account_run(TimeNs sim_start, std::int64_t wall_start_ns) {
  const std::uint64_t wall = static_cast<std::uint64_t>(wall_now_ns() - wall_start_ns);
  wall_ns_ += wall;
  wall_ns_counter_->inc(wall);
  sim_ns_counter_->inc(static_cast<std::uint64_t>(now_ - sim_start));
  const double sim_total = static_cast<double>(sim_ns_counter_->value());
  if (sim_total > 0) {
    drift_gauge_->set(static_cast<double>(wall_ns_counter_->value()) / sim_total);
  }
}

EventHandle EventLoop::do_schedule(TimeNs at, DurationNs period, detail::EventFn fn) {
  const std::uint32_t slot = table_->acquire();
  detail::Slot& s = table_->slots[slot];
  s.period = period;
  s.fn = std::move(fn);
  if (period > 0) s.label = assign_label(slot, at);
  push_entry(at, slot);
  return EventHandle(table_, slot, s.gen);
}

void EventLoop::do_post(TimeNs at, detail::EventFn fn) {
  const std::uint32_t slot = table_->acquire();
  detail::Slot& s = table_->slots[slot];
  s.period = 0;
  s.fn = std::move(fn);
  push_entry(at, slot);
}

void EventLoop::push_entry(TimeNs at, std::uint32_t slot) {
  detail::Slot& s = table_->slots[slot];
  s.next_at = at;
  push_heap_entry(HeapEntry{at, real_seq(next_seq_++), slot, s.gen});
}

void EventLoop::push_heap_entry(const HeapEntry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void EventLoop::wake(const EventHandle& h) {
  detail::SlotTable& t = *table_;
  if (h.slot_ >= t.slots.size()) return;
  detail::Slot& s = t.slots[h.slot_];
  if (s.gen != h.gen_) return;
  if (h.slot_ == t.running) {
    t.running_woken = true;
    return;
  }
  if (!s.parked) return;
  const Tick next = next_skipped(s);
  s.parked = false;
  --t.parked;
  s.next_at = next.at;
  push_heap_entry(HeapEntry{next.at, next.seq, h.slot_, s.gen});
}

void EventLoop::park(std::uint32_t slot) {
  detail::SlotTable& t = *table_;
  if (t.parked++ == 0) marks_.clear();  // history starts afresh with the first parked task
  detail::Slot& s = t.slots[slot];
  s.parked = true;
  // The first skipped tick takes the number its push would have taken.
  s.next_at = now_ + s.period;
  s.next_seq = real_seq(next_seq_++);
}

void EventLoop::trim_marks() {
  const std::size_t cut = kMarks / 2;
  for (const Member& p : periodic_) {
    detail::Slot& s = table_->slots[p.slot];
    if (s.gen != p.gen || !s.parked) continue;
    const Tick next = tick_after(s, cut - 1);
    s.next_at = next.at;
    s.next_seq = next.seq;
  }
  marks_.drop_front(cut);
}

bool EventLoop::runs_after(const Mark& m, std::uint64_t seq, const detail::Slot& s) noexcept {
  // On one grid (same period, same instant) the grid order decides.
  if (m.label != 0 && m.period == mark_period(s.period)) return m.label > s.label;
  return m.seq > seq;
}

std::size_t EventLoop::first_at_or_after(TimeNs at) const {
  // Mark times never decrease, and the instants asked about are mostly a
  // few periods old: gallop back from the newest mark, then bisect.
  std::size_t hi = marks_.size();  // marks from hi on are at or after `at`
  std::size_t lo = 0;
  for (std::size_t step = 1; hi > 0; step *= 2) {
    const std::size_t probe = hi > step ? hi - step : 0;
    if (marks_[probe].at < at) {
      lo = probe + 1;
      break;
    }
    hi = probe;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (marks_[mid].at < at) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t EventLoop::first_after(std::size_t i, TimeNs at, std::uint64_t seq,
                                   const detail::Slot& s) const {
  while (i < marks_.size() && marks_[i].at == at && !runs_after(marks_[i], seq, s)) ++i;
  return i;
}

std::uint64_t EventLoop::skipped_seq(const detail::Slot& s, TimeNs at) const {
  const DurationNs p = s.period;
  assert(at >= s.next_at && (at - s.next_at) % p == 0);
  // Walk back to the latest tick whose number the marks pin down without the
  // number of its predecessor: no mark ran at the predecessor's instant, or
  // none of those falls between the bounds the instant before gives.
  TimeNs t = at;
  std::uint64_t seq = s.next_seq;
  for (; t != s.next_at; t -= p) {
    const TimeNs prev = t - p;
    const std::size_t first = first_at_or_after(prev);
    std::size_t i = first;
    std::size_t j = first;
    if (first < marks_.size() && marks_[first].at == prev) {
      std::uint64_t lo = s.next_seq;
      std::uint64_t hi = s.next_seq;
      if (prev != s.next_at) {
        const std::size_t before = first_at_or_after(prev - p);
        lo = derived_seq(gap_at(first_after(before, prev - p, 0, s)), s.label);
        hi = derived_seq(gap_at(first_after(before, prev - p, kLastSeq, s)), s.label);
      }
      i = first_after(first, prev, lo, s);
      j = first_after(first, prev, hi, s);
    }
    if (i == j) {
      seq = derived_seq(gap_at(i), s.label);
      break;
    }
  }
  // Then forward, each number exact.
  for (; t != at; t += p) {
    const std::size_t i = first_after(first_at_or_after(t), t, seq, s);
    assert(i < marks_.size());
    seq = derived_seq(gap_at(i), s.label);
  }
  return seq;
}

EventLoop::Tick EventLoop::tick_after(const detail::Slot& s, std::size_t pos) const {
  const Mark& m = marks_[pos];
  auto ran_before = [&](TimeNs at, std::uint64_t seq) {
    return m.at < at || (m.at == at && !runs_after(m, seq, s));
  };
  if (ran_before(s.next_at, s.next_seq)) return Tick{s.next_at, s.next_seq};
  // The first grid instant at or after m's, then one period on if the tick
  // there ran before m.
  const DurationNs p = s.period;
  const TimeNs at = s.next_at + (m.at - s.next_at + p - 1) / p * p;
  const std::uint64_t seq = skipped_seq(s, at);
  if (ran_before(at, seq)) return Tick{at, seq};
  return Tick{at + p, derived_seq(gap_at(first_after(first_at_or_after(at), at, seq, s)), s.label)};
}

std::uint32_t EventLoop::assign_label(std::uint32_t slot, TimeNs first_at) {
  detail::SlotTable& t = *table_;
  const DurationNs period = t.slots[slot].period;
  std::erase_if(periodic_, [&t](const Member& m) { return t.slots[m.slot].gen != m.gen; });
  // Exclusive bounds: above every task the new one must follow, below every
  // task it must precede. Across periods the longer goes first. On its grid
  // a member goes first iff its next tick not yet run is at or after the new
  // task's first: its number there was taken before the new task's. A
  // running member's next tick is the one running.
  auto bounds = [&] {
    std::uint32_t lo = 0;
    std::uint32_t hi = kReal;
    for (const Member& m : periodic_) {
      const detail::Slot& s = t.slots[m.slot];
      bool first;
      if (s.period != period) {
        first = s.period > period;
      } else if ((s.next_at - first_at) % period == 0) {
        const TimeNs next = m.slot == t.running ? now_ : s.parked ? next_skipped(s).at : s.next_at;
        first = next >= first_at;
      } else {
        continue;  // another grid: the two never tick at one instant
      }
      if (first) {
        lo = std::max(lo, s.label);
      } else {
        hi = std::min(hi, s.label);
      }
    }
    assert(lo < hi);
    return std::pair{lo, hi};
  };
  auto [lo, hi] = bounds();
  if (hi - lo < 2) {
    relabel();
    std::tie(lo, hi) = bounds();
  }
  // Labels step apart at either end, so spawn-order appends do not halve
  // the room left.
  const std::uint32_t room = (hi - lo) / 2;
  const std::uint32_t label = lo == 0 && hi == kReal ? kReal / 2
                              : hi == kReal          ? lo + std::min(room, kLabelStep)
                              : lo == 0              ? hi - std::min(room, kLabelStep)
                                                     : lo + room;
  periodic_.push_back(Member{slot, t.slots[slot].gen});
  return label;
}

void EventLoop::relabel() {
  auto& slots = table_->slots;
  auto derived = [](std::uint64_t seq) { return (seq & kReal) != kReal; };
  std::vector<std::uint32_t> labels;
  for (const Member& m : periodic_) labels.push_back(slots[m.slot].label);
  for (const HeapEntry& e : heap_) {
    if (derived(e.seq)) labels.push_back(static_cast<std::uint32_t>(e.seq & kReal));
  }
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    if (marks_[i].label != 0) labels.push_back(marks_[i].label);
    if (derived(marks_[i].seq)) labels.push_back(static_cast<std::uint32_t>(marks_[i].seq & kReal));
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  assert(labels.size() < kReal / 2);
  // Evenly spaced, in the same order: every comparison keeps its outcome,
  // so the heap stays a heap.
  const std::uint32_t step = kReal / static_cast<std::uint32_t>(labels.size() + 1);
  auto remap = [&](std::uint32_t label) {
    const auto i = std::lower_bound(labels.begin(), labels.end(), label) - labels.begin();
    return step * static_cast<std::uint32_t>(i + 1);
  };
  auto remap_seq = [&](std::uint64_t& seq) {
    if (derived(seq)) seq = (seq & ~std::uint64_t{kReal}) | remap(seq & kReal);
  };
  for (const Member& m : periodic_) {
    detail::Slot& s = slots[m.slot];
    s.label = remap(s.label);
    if (s.parked) remap_seq(s.next_seq);
  }
  for (HeapEntry& e : heap_) remap_seq(e.seq);
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    Mark& m = marks_[i];
    if (m.label != 0) m.label = remap(m.label);
    remap_seq(m.seq);
  }
}

bool EventLoop::dispatch_one(TimeNs deadline) {
  auto& slots = table_->slots;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (slots[top.slot].gen != top.gen) {  // cancelled; slot already recycled
      pop_entry();
      continue;
    }
    if (top.at > deadline) return false;
    pop_entry();
    assert(top.at >= now_);
    now_ = top.at;
    detail::Slot& s = slots[top.slot];
    if (table_->parked > 0) {
      record_mark(Mark{top.at, top.seq, next_seq_, s.label, mark_period(s.period)});
    }
    dispatched_++;
    events_counter_->inc();
    if (s.period > 0) {
      // Periodic: the fn stays in its slot across firings. Mark it running
      // so a self-cancel from inside the callback defers the slot release.
      table_->running = top.slot;
      table_->running_cancelled = false;
      table_->running_idle = false;
      table_->running_woken = false;
      s.fn();
      table_->running = detail::kNoSlot;
      if (table_->running_cancelled) {
        table_->release(top.slot);
      } else if (table_->running_idle && !table_->running_woken) {
        park(top.slot);
      } else {
        push_entry(now_ + s.period, top.slot);
      }
    } else {
      // One-shot: free the slot before invoking, so the callback can safely
      // schedule new work (possibly reusing this slot) and a cancel() of the
      // in-flight handle is a stale-generation no-op.
      detail::EventFn fn = std::move(s.fn);
      table_->release(top.slot);
      fn();
    }
    return true;
  }
  return false;
}

std::uint64_t EventLoop::run() {
  stopped_ = false;
  const TimeNs sim_start = now_;
  const std::int64_t wall_start = wall_now_ns();
  std::uint64_t n = 0;
  while (!stopped_ && dispatch_one(kForever)) ++n;
  account_run(sim_start, wall_start);
  return n;
}

std::uint64_t EventLoop::run_until(TimeNs deadline) {
  stopped_ = false;
  const TimeNs sim_start = now_;
  const std::int64_t wall_start = wall_now_ns();
  std::uint64_t n = 0;
  while (!stopped_ && dispatch_one(deadline)) ++n;
  if (!stopped_ && deadline >= now_) {
    // Skipped ticks up to the deadline ran before anything the caller
    // schedules at it.
    if (table_->parked > 0) record_mark(Mark{deadline, kLastSeq, next_seq_, 0, 0});
    now_ = deadline;
  }
  account_run(sim_start, wall_start);
  return n;
}

}  // namespace migr::sim
