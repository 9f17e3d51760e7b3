#include "sim/event_loop.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <limits>
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
  push_entry(at, next_seq_++, slot);
  return EventHandle(table_, slot, s.gen);
}

void EventLoop::do_post(TimeNs at, std::uint64_t seq, detail::EventFn fn) {
  const std::uint32_t slot = table_->acquire();
  detail::Slot& s = table_->slots[slot];
  s.period = 0;
  s.fn = std::move(fn);
  push_entry(at, seq, slot);
}

void EventLoop::push_entry(TimeNs at, std::uint64_t seq, std::uint32_t slot) {
  heap_.push_back(HeapEntry{at, seq, slot, table_->slots[slot].gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void EventLoop::drop_cancelled() {
  const auto& slots = table_->slots;
  std::erase_if(heap_, [&](const HeapEntry& e) { return slots[e.slot].gen != e.gen; });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  table_->cancelled = 0;
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
  s.parked = false;
  // The first grid instant at or after now: skipped ticks did no work.
  const TimeNs behind = now_ - s.next_at;
  const TimeNs at = behind > 0 ? s.next_at + (behind + s.period - 1) / s.period * s.period
                               : s.next_at;
  push_entry(at, next_seq_++, h.slot_);
}

bool EventLoop::dispatch_one(TimeNs deadline) {
  auto& slots = table_->slots;
  // Once cancelled entries outnumber the live ones, one O(n) rebuild drops
  // them all: each rebuild follows at least n/2 cancels, so a cancel costs
  // amortised O(1) and the heap stays within twice its live entries.
  if (2 * table_->cancelled > heap_.size()) drop_cancelled();
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (slots[top.slot].gen != top.gen) {  // cancelled; slot already recycled
      table_->cancelled--;
      pop_entry();
      continue;
    }
    if (top.at > deadline) return false;
    pop_entry();
    assert(top.at >= now_);
    now_ = top.at;
    detail::Slot& s = slots[top.slot];
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
        // Parked: off the heap, its grid kept in its next tick's instant.
        s.parked = true;
        s.next_at = now_ + s.period;
      } else {
        push_entry(now_ + s.period, next_seq_++, top.slot);
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
  if (!stopped_ && deadline >= now_) now_ = deadline;
  account_run(sim_start, wall_start);
  return n;
}

}  // namespace migr::sim
