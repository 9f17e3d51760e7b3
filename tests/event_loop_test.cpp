// Core event-loop semantics the rest of the simulator leans on. These pin
// down the contract of the pooled fast path: slot reuse and generation
// counters must not let a cancelled or stale handle touch a recycled slot,
// and dispatch order must stay FIFO among equal timestamps (the fabric's
// in-order delivery guarantee rides on that tie-break). A parked task must
// leave the heap and come back on its own grid, losing no work. Events
// queued in an EventLane and a heap rebuilt without its cancelled entries
// must dispatch exactly as if every event had been posted alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_loop.hpp"

namespace migr::sim {
namespace {

TEST(EventLoopCore, CancelBeforeFireSuppressesCallback) {
  EventLoop loop;
  int fired = 0;
  EventHandle h = loop.schedule_at(usec(10), [&] { fired++; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(loop.empty());

  // The slot is free for reuse now; a second cancel on the stale handle must
  // not disturb whatever event recycles the slot (generation counter check).
  EventHandle h2 = loop.schedule_at(usec(20), [&] { fired++; });
  h.cancel();
  EXPECT_TRUE(h2.pending());
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopCore, PeriodicCancelFromInsideOwnCallback) {
  EventLoop loop;
  int ticks = 0;
  EventHandle h;
  h = loop.schedule_every(usec(5), [&] {
    ticks++;
    if (ticks == 3) h.cancel();
  });
  loop.run_until(usec(100));
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(loop.empty());
  // Time still advances to the deadline after the task stops re-arming.
  EXPECT_EQ(loop.now(), usec(100));
}

TEST(EventLoopCore, RunUntilAdvancesNowToDeadline) {
  EventLoop loop;
  int fired = 0;
  // One event before the deadline, one exactly at it, one after.
  loop.schedule_at(usec(3), [&] { fired++; });
  loop.schedule_at(usec(10), [&] { fired++; });
  loop.schedule_at(usec(11), [&] { fired++; });
  const std::uint64_t n = loop.run_until(usec(10));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), usec(10));
  EXPECT_EQ(loop.pending_events(), 1u);

  // An empty run still lands now() on the deadline.
  EXPECT_EQ(loop.run_until(usec(10)), 0u);
  EXPECT_EQ(loop.now(), usec(10));
}

TEST(EventLoopCore, EqualTimestampsDispatchFifo) {
  EventLoop loop;
  std::vector<int> order;
  // Mix handle-returning and fire-and-forget scheduling at one timestamp:
  // both go through the same heap and must keep submission order.
  loop.schedule_at(usec(7), [&] { order.push_back(0); });
  loop.post_at(usec(7), [&] { order.push_back(1); });
  loop.schedule_at(usec(7), [&] { order.push_back(2); });
  loop.post_at(usec(7), [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoopCore, ScheduleAtClampsPastTimesToNow) {
  EventLoop loop;
  std::vector<std::string> order;
  loop.schedule_at(usec(10), [&] {
    // From inside an event at t=10us, scheduling into the past or with a
    // negative delay must clamp to now — never travel backwards.
    loop.schedule_at(usec(2), [&] {
      order.push_back("past@" + std::to_string(loop.now()));
    });
    loop.schedule_in(-5, [&] {
      order.push_back("neg@" + std::to_string(loop.now()));
    });
    order.push_back("outer");
  });
  loop.run();
  const std::string now_s = std::to_string(usec(10));
  EXPECT_EQ(order, (std::vector<std::string>{"outer", "past@" + now_s, "neg@" + now_s}));
  EXPECT_EQ(loop.now(), usec(10));
}

TEST(EventLoopCore, ParkedTaskLeavesTheHeapAndWakesOnItsGrid) {
  EventLoop loop;
  std::vector<TimeNs> ticks;
  bool work = false;
  // Grid: 3, 8, 13, ... us. Idle from the first tick on.
  EventHandle h = loop.schedule_parkable(
      usec(5),
      [&] {
        ticks.push_back(loop.now());
        const bool had = work;
        work = false;
        return had;
      },
      usec(3));
  loop.run_until(usec(100));
  EXPECT_EQ(ticks, (std::vector<TimeNs>{usec(3)}));
  EXPECT_TRUE(h.pending());  // parked, not cancelled
  const std::uint64_t events = loop.events_dispatched();

  // Woken between grid ticks: fires on the next one, then once more to find
  // nothing, and parks again.
  work = true;
  loop.wake(h);
  loop.wake(h);  // idempotent while armed
  loop.run_until(usec(200));
  EXPECT_EQ(ticks, (std::vector<TimeNs>{usec(3), usec(103), usec(108)}));
  EXPECT_EQ(loop.events_dispatched() - events, 2u);

  h.cancel();
  loop.wake(h);  // stale handle: no-op
  loop.run_until(usec(300));
  EXPECT_EQ(ticks.back(), usec(108));
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopCore, WakeOnAGridTickRunsAfterTheWakingEvent) {
  // Work landing exactly on a grid tick is seen on that tick by an
  // always-ticking poller only if the landing event was queued before the
  // tick was, one period earlier. A parked poller is woken by the landing
  // event and takes its tick there after it, so it sees the work on that
  // tick either way.
  auto first_seen = [](bool parks, TimeNs queued_at) {
    EventLoop loop;
    bool work = false;
    TimeNs seen = -1;
    auto tick = [&] {
      if (work && seen < 0) seen = loop.now();
      const bool had = work;
      work = false;
      return had;
    };
    // Grid: 5, 10, 15, ... us; the work lands at 100 us.
    EventHandle task = parks ? loop.schedule_parkable(usec(5), tick)
                             : loop.schedule_every(usec(5), [&] { (void)tick(); });
    loop.run_until(queued_at);
    loop.schedule_at(usec(100), [&] {
      work = true;
      loop.wake(task);  // a no-op for the always-ticking task
    });
    loop.run_until(usec(200));
    return seen;
  };
  EXPECT_EQ(first_seen(/*parks=*/false, usec(50)), usec(100));
  EXPECT_EQ(first_seen(/*parks=*/false, usec(97)), usec(105));
  EXPECT_EQ(first_seen(/*parks=*/true, usec(50)), usec(100));
  EXPECT_EQ(first_seen(/*parks=*/true, usec(97)), usec(100));
}

TEST(EventLoopCore, WakeDuringOwnIdleTickKeepsTheTaskArmed) {
  EventLoop loop;
  int ticks = 0;
  EventHandle h;
  h = loop.schedule_parkable(usec(5), [&] {
    // The first tick finds nothing but learns, mid-tick, that work arrived.
    if (++ticks == 1) loop.wake(h);
    return false;
  });
  loop.run_until(usec(100));
  EXPECT_EQ(ticks, 2);
}

TEST(EventLoopCore, PollersWokenTogetherTickOnTheirOwnGridsInWakeOrder) {
  // Three parked pollers on one 5 us grid (5, 10, ... us) and one on a 3 us
  // grid (3, 6, ... us), all woken by one event at 92 us in the order
  // 2, 0, 3, 1. Each ticks at its own next grid instant; the three that
  // share 95 us tick there in wake order, not in spawn order.
  EventLoop loop;
  std::vector<int> work(4, 0);
  std::vector<EventHandle> tasks;
  std::vector<std::pair<int, TimeNs>> seen;
  for (int id = 0; id < 4; ++id) {
    tasks.push_back(loop.schedule_parkable(id < 3 ? usec(5) : usec(3), [&, id] {
      if (work[id] == 0) return false;
      --work[id];
      seen.emplace_back(id, loop.now());
      return true;
    }));
  }
  loop.schedule_at(usec(92), [&] {
    for (int id : {2, 0, 3, 1}) {
      work[id] = 1;
      loop.wake(tasks[id]);
    }
  });
  loop.run_until(usec(200));
  EXPECT_EQ(seen, (std::vector<std::pair<int, TimeNs>>{
                      {3, usec(93)}, {2, usec(95)}, {0, usec(95)}, {1, usec(95)}}));
}

// ---------------------------------------------------------------------------
// EventLoopProperty: parked pollers lose no work and keep their grids. The
// seeded scenarios mix pollers of periods 1-6 us, spawns from inside events
// and ticks, one-shots, wakes from inside events, from inside the task's own
// tick and between run_until calls, cancels, and runs stopped before their
// deadline.
//
// Off-grid: every poller runs on its own sub-microsecond phase, and one-shots
// and run_until deadlines land on whole or half microseconds, so no wake
// lands on the woken poller's grid instant and no two pollers share an
// instant. Each scenario runs twice, once with parkable pollers and once with
// pollers that tick every period and do nothing on an idle tick; the ordered
// log of every tick that found work, interleaved with every other event, must
// be identical.
//
// On-grid: pollers crowd onto shared grids, spawned at one another's tick
// instants, and one-shots land on grid ticks (also one period after the
// instant that scheduled them). There a woken tick may run after an event
// that an always-ticking one runs before, so only invariants are checked:
// every tick that finds work lies on its poller's grid, work handed over at
// time w is seen at a grid instant in [w, w + period], and two runs of one
// seed give identical logs.
// ---------------------------------------------------------------------------

struct LogEntry {
  TimeNs at;
  char kind;  // 't' tick that found work, 'e' one-shot event, 'r' run_until returned
  int id;
  bool operator==(const LogEntry&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LogEntry& e) {
  return os << e.kind << e.id << '@' << e.at;
}

class ParkingScenario {
 public:
  ParkingScenario(std::uint64_t seed, bool parks, bool on_grid, TimeNs horizon, int max_events)
      : rng_(seed), parks_(parks), on_grid_(on_grid), horizon_(horizon), max_events_(max_events) {}

  std::vector<LogEntry> run() {
    const std::uint64_t initial = 2 + rng_.below(6);
    for (std::uint64_t i = 0; i < initial; ++i) spawn();
    for (int i = 0; i < 4; ++i) schedule_event(random_time());
    TimeNs deadline = 0;
    while (deadline < horizon_) {
      deadline += static_cast<TimeNs>(rng_.range(1, 40)) * usec(1) / (rng_.chance(0.2) ? 2 : 1);
      loop_.run_until(deadline);
      log_.push_back({loop_.now(), 'r', -1});
      for (std::size_t i : live_) {
        if (pollers_[i].due_by < loop_.now()) violate(i, "lost the work handed to it");
      }
      act(1 + static_cast<int>(rng_.below(3)));  // pushed and woken between runs
    }
    return log_;
  }

  std::uint64_t dispatched() const { return loop_.events_dispatched(); }
  // The first broken invariant, or empty.
  const std::string& violation() const { return violation_; }

 private:
  static constexpr std::size_t kMaxLive = 24;
  static constexpr DurationNs kPeriods[] = {usec(1), usec(2), usec(3), usec(4), usec(6)};
  static constexpr TimeNs kNotDue = std::numeric_limits<TimeNs>::max();

  struct Poller {
    EventHandle handle;
    DurationNs period;
    TimeNs phase;  // its first tick instant
    int work = 0;
    TimeNs due_by = kNotDue;  // its next tick must find its work by then
  };

  void act(int n) {
    for (int i = 0; i < n; ++i) {
      switch (rng_.below(9)) {
        case 0:
        case 1:
        case 2: give_work(pick_live()); break;
        case 3: schedule_event(random_time()); break;
        case 4: schedule_event(on_grid_ ? grid_time() : random_time()); break;
        case 5: spawn(); break;
        case 6:
          if (rng_.chance(0.3)) cancel(pick_live());
          break;
        case 7: loop_.wake(pollers_[pick()].handle); break;  // nothing to do yet
        default:
          // From inside an event: run_until returns before its deadline.
          if (rng_.chance(0.05)) loop_.stop();
          break;
      }
    }
  }

  std::size_t pick() { return rng_.below(pollers_.size()); }
  std::size_t pick_live() { return live_.empty() ? pick() : live_[rng_.below(live_.size())]; }

  void give_work(std::size_t i) {
    Poller& p = pollers_[i];
    p.work += 1 + static_cast<int>(rng_.below(3));
    // Not before its first tick.
    p.due_by = std::min(p.due_by, std::max(loop_.now() + p.period, p.phase));
    loop_.wake(p.handle);
  }

  void cancel(std::size_t i) {
    pollers_[i].handle.cancel();
    std::erase(live_, i);
  }

  void violate(std::size_t i, const char* what) {
    if (!violation_.empty()) return;
    std::ostringstream os;
    os << "poller " << i << " (period " << pollers_[i].period << ", phase " << pollers_[i].phase
       << ") " << what << " at " << loop_.now();
    violation_ = os.str();
  }

  // On-grid, whole microseconds on, so that grids and events share
  // instants. Off-grid, a whole-microsecond instant, on no poller's grid.
  TimeNs random_time() {
    const TimeNs now = loop_.now();
    if (on_grid_) return now + static_cast<TimeNs>(rng_.below(13)) * usec(1);
    return now / usec(1) * usec(1) + static_cast<TimeNs>(rng_.range(1, 13)) * usec(1);
  }

  // A tick instant of some poller's grid: the next one, or one or two periods on.
  TimeNs grid_time() {
    const Poller& p = pollers_[pick_live()];
    const TimeNs now = loop_.now();
    const TimeNs next = now + ((p.phase - now) % p.period + p.period) % p.period;
    return next + static_cast<TimeNs>(rng_.below(3)) * p.period;
  }

  void schedule_event(TimeNs at) {
    if (events_ >= max_events_) return;
    const int id = events_++;
    loop_.schedule_at(at, [this, id] {
      log_.push_back({loop_.now(), 'e', id});
      act(static_cast<int>(rng_.below(3)));
    });
  }

  // Off-grid: the smallest sub-microsecond offset no live poller ticks on,
  // and not a half microsecond, where run_until deadlines may land.
  TimeNs own_offset() const {
    for (TimeNs offset = 1;; ++offset) {
      if (offset == usec(1) / 2) continue;
      const bool taken = std::any_of(live_.begin(), live_.end(), [&](std::size_t i) {
        return pollers_[i].phase % usec(1) == offset;
      });
      if (!taken) return offset;
    }
  }

  void spawn() {
    if (live_.size() >= kMaxLive) return;
    // Half the spawns join an existing poller's period, so on-grid they often
    // land on its grid: spawned at one of its tick instants with the default
    // delay.
    const DurationNs period = rng_.chance(0.5) ? pollers_.empty() ? usec(2)
                                                                  : pollers_[pick_live()].period
                                               : kPeriods[rng_.below(5)];
    DurationNs first = period;
    switch (rng_.below(10)) {
      case 0: first = 0; break;
      case 1: first = 2 * period; break;
      case 2: first = period / 2; break;
      default: break;
    }
    if (!on_grid_) {
      // Its first tick a whole number of microseconds on, at its own offset.
      const TimeNs now = loop_.now();
      first = now / usec(1) * usec(1) + first / usec(1) * usec(1) + usec(1) + own_offset() - now;
    }
    const int id = static_cast<int>(pollers_.size());
    pollers_.push_back(Poller{{}, period, loop_.now() + first});
    live_.push_back(pollers_.size() - 1);
    pollers_[id].handle =
        parks_ ? loop_.schedule_parkable(period, [this, id] { return tick(id); }, first)
               : loop_.schedule_every(period, [this, id] { (void)tick(id); }, first);
  }

  bool tick(int id) {
    Poller& p = pollers_[id];
    if (p.work == 0) return false;
    const TimeNs now = loop_.now();
    if ((now - p.phase) % p.period != 0) violate(id, "ticked off its grid");
    if (now > p.due_by) violate(id, "saw its work more than a period late");
    --p.work;
    p.due_by = p.work > 0 ? now + p.period : kNotDue;
    log_.push_back({now, 't', id});
    act(static_cast<int>(rng_.below(2)));
    if (rng_.chance(0.1)) {
      // Learned of more work mid-tick: stays armed whatever the tick returns.
      loop_.wake(pollers_[id].handle);
      return false;
    }
    return true;
  }

  common::Rng rng_;
  bool parks_;
  bool on_grid_;
  TimeNs horizon_;
  int max_events_;
  EventLoop loop_;
  std::vector<Poller> pollers_;
  std::vector<std::size_t> live_;  // pollers not cancelled by the scenario
  std::vector<LogEntry> log_;
  std::string violation_;
  int events_ = 0;
};

std::string divergence(const std::vector<LogEntry>& got, const std::vector<LogEntry>& want,
                       const char* got_name, const char* want_name) {
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  std::ostringstream os;
  os << "logs diverge at entry " << i << " of " << want.size();
  if (i > 0) os << ", after " << want[i - 1];
  if (i < got.size()) os << "; " << got_name << ' ' << got[i];
  if (i < want.size()) os << "; " << want_name << ' ' << want[i];
  return os.str();
}

// Off-grid: runs `seeds` scenarios both ways and fails at the first
// divergence or broken invariant.
void expect_parking_invisible(std::uint64_t seeds, TimeNs horizon, int max_events) {
  std::uint64_t parked_events = 0;
  std::uint64_t ticking_events = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    ParkingScenario parked(seed, /*parks=*/true, /*on_grid=*/false, horizon, max_events);
    ParkingScenario ticking(seed, /*parks=*/false, /*on_grid=*/false, horizon, max_events);
    const std::vector<LogEntry> got = parked.run();
    const std::vector<LogEntry> want = ticking.run();
    parked_events += parked.dispatched();
    ticking_events += ticking.dispatched();
    ASSERT_EQ(parked.violation(), "") << "seed " << seed << ", parked";
    ASSERT_EQ(ticking.violation(), "") << "seed " << seed << ", always-ticking";
    if (got != want) FAIL() << "seed " << seed << ": " << divergence(got, want, "parked", "always-ticking");
  }
  // The scenarios must leave pollers idle for most ticks, or parking is not
  // being exercised.
  EXPECT_LT(parked_events * 2, ticking_events);
}

// On-grid: runs `seeds` parked scenarios twice each and fails at the first
// broken invariant or difference between the two runs.
void expect_parking_keeps_grids(std::uint64_t seeds, TimeNs horizon, int max_events) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    ParkingScenario first(seed, /*parks=*/true, /*on_grid=*/true, horizon, max_events);
    ParkingScenario again(seed, /*parks=*/true, /*on_grid=*/true, horizon, max_events);
    const std::vector<LogEntry> want = first.run();
    const std::vector<LogEntry> got = again.run();
    ASSERT_EQ(first.violation(), "") << "seed " << seed;
    if (got != want) FAIL() << "seed " << seed << ": " << divergence(got, want, "rerun", "first run");
  }
}

TEST(EventLoopProperty, ParkedPollersDispatchLikeAlwaysTickingOnes) {
  expect_parking_invisible(150, usec(1500), 1500);
}

// Long parked stretches: thousands of dispatches pass while pollers stay
// parked.
TEST(EventLoopProperty, LongParkedStretchesDispatchLikeAlwaysTickingOnes) {
  expect_parking_invisible(6, msec(25), 25000);
}

TEST(EventLoopProperty, ParkedPollersOnSharedGridsKeepTheirGridsAndLoseNoWork) {
  expect_parking_keeps_grids(150, usec(1500), 1500);
}

// ---------------------------------------------------------------------------
// Dispatch order against a reference model. Seeded scenarios mix one-shot
// posts, cancellable timers, periodic and parkable tasks and EventLane
// pushes, most made from inside callbacks, on a coarse time grain so that
// many events share an instant. Batches of far-future timers are cancelled
// in bulk, which forces the heap to rebuild without them. The model keeps
// every event the loop owes, keyed by (time, posting order), where a lane
// event is posted when it is queued and a periodic tick when its previous
// tick returns; each dispatch must be the model's earliest event.
// ---------------------------------------------------------------------------

class DispatchOrderScenario {
 public:
  explicit DispatchOrderScenario(std::uint64_t seed) : rng_(seed) {
    for (int l = 0; l < kLanes; ++l) {
      lanes_.push_back(std::make_unique<Lane>(loop_, LaneFire{this}));
    }
  }

  void run() {
    for (int i = 0; i < 4; ++i) spawn();
    for (int i = 0; i < 6; ++i) act(1);
    TimeNs deadline = 0;
    while (deadline < kHorizon) {
      deadline += static_cast<TimeNs>(rng_.range(1, 40)) * kGrain;
      loop_.run_until(deadline);
      settle();
      check_after_run(deadline);
      act(1 + static_cast<int>(rng_.below(3)));  // between runs
    }
  }

  const std::string& violation() const { return violation_; }
  std::uint64_t dispatched() const { return loop_.events_dispatched(); }
  int rebuilds_seen() const { return rebuilds_seen_; }
  int lane_ties() const { return lane_ties_; }

 private:
  static constexpr TimeNs kGrain = 50;
  static constexpr TimeNs kHorizon = usec(400);
  static constexpr TimeNs kFar = sec(1);
  static constexpr int kLanes = 3;
  static constexpr int kMaxPosts = 6000;
  static constexpr std::size_t kMaxTasks = 10;
  static constexpr int kTaskIds = 1'000'000;  // tick ids: kTaskIds + task index

  struct Key {
    TimeNs at;
    std::uint64_t order;
    auto operator<=>(const Key&) const = default;
  };
  struct Task {
    EventHandle handle;
    DurationNs period = 0;
    bool parkable = false;
    bool cancelled = false;
    bool parked = false;
    TimeNs next_at = 0;  // parked: its next grid instant
    int work = 0;
    bool armed = false;  // `key` is in the model
    Key key{};
  };
  struct Timer {
    EventHandle handle;
    Key key;
  };
  struct LaneFire {
    DispatchOrderScenario* s;
    void operator()(int id) const { s->lane_fired(id); }
  };
  using Lane = EventLane<int, LaneFire>;

  TimeNs now() const { return loop_.now(); }
  TimeNs soon(std::uint64_t grains) { return now() + static_cast<TimeNs>(rng_.below(grains)) * kGrain; }

  Key expect(TimeNs at, int id) {
    const Key key{at, order_++};
    model_.emplace(key, id);
    return key;
  }

  // The first thing every callback does: the dispatch must be the model's
  // earliest event.
  void fire(int id) {
    settle();
    if (!violation_.empty()) return;
    std::ostringstream os;
    if (model_.empty()) {
      os << "dispatched " << id << " at " << now() << " with nothing owed";
    } else if (model_.begin()->second != id || model_.begin()->first.at != now()) {
      os << "dispatched " << id << " at " << now() << ", model's earliest is "
         << model_.begin()->second << " at " << model_.begin()->first.at;
    } else {
      model_.erase(model_.begin());
      return;
    }
    violation_ = os.str();
  }

  // A periodic tick's next firing is posted when the tick returns, before
  // anything else happens.
  void settle() {
    if (rearm_ < 0) return;
    arm(tasks_[static_cast<std::size_t>(rearm_)], rearm_at_);
    rearm_ = -1;
  }

  void arm(Task& t, TimeNs at) {
    const int id = kTaskIds + static_cast<int>(&t - tasks_.data());
    t.key = expect(at, id);
    t.armed = true;
  }

  void check_after_run(TimeNs deadline) {
    if (!violation_.empty()) return;
    std::ostringstream os;
    if (!model_.empty() && model_.begin()->first.at <= deadline) {
      os << "event " << model_.begin()->second << " due at " << model_.begin()->first.at
         << " never fired";
      violation_ = os.str();
      return;
    }
    // Live heap entries: all the model owes but the lanes' non-head events.
    std::size_t live = model_.size();
    for (const auto& lane : lanes_) live -= lane->empty() ? 0 : lane->size() - 1;
    if (loop_.heap_entries() > 2 * live) {
      os << loop_.heap_entries() << " heap entries for " << live << " live ones";
      violation_ = os.str();
    }
    if (far_cancelled_ > 0) {
      // Without a rebuild the cancelled far timers would all still be there.
      if (loop_.heap_entries() < far_cancelled_) rebuilds_seen_++;
      far_cancelled_ = 0;
    }
  }

  void act(int n) {
    for (int i = 0; i < n; ++i) {
      switch (rng_.below(12)) {
        case 0:
        case 1: post(soon(6)); break;
        case 2: timer(soon(20)); break;
        case 3:
          if (!timers_.empty()) cancel_timer(rng_.below(timers_.size()));
          break;
        case 4:
        case 5:
        case 6: lane_push(static_cast<int>(rng_.below(kLanes))); break;
        case 7: give_work(); break;
        case 8: spawn(); break;
        case 9:
          if (rng_.chance(0.3)) cancel_task(rng_.below(tasks_.size()));
          break;
        case 10:
          if (rng_.chance(0.3)) far_batch();
          break;
        default:
          if (!far_.empty()) cancel_far();
          break;
      }
    }
  }

  bool budget() { return posts_++ < kMaxPosts; }

  void post(TimeNs at) {
    if (!budget()) return;
    const int id = next_id_++;
    expect(at, id);
    loop_.post_at(at, [this, id] {
      fire(id);
      act(static_cast<int>(rng_.below(3)));
    });
  }

  void timer(TimeNs at) {
    if (!budget()) return;
    const int id = next_id_++;
    const Key key = expect(at, id);
    EventHandle h = loop_.schedule_at(at, [this, id] {
      fire(id);
      act(static_cast<int>(rng_.below(3)));
    });
    timers_.push_back({h, key});
  }

  void cancel_timer(std::size_t i) {
    timers_[i].handle.cancel();
    model_.erase(timers_[i].key);  // a no-op once it has fired
    timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // A batch of far-future deadlines, most of which will be cancelled.
  void far_batch() {
    if (!budget()) return;
    const int n = 50 + static_cast<int>(rng_.below(250));
    for (int k = 0; k < n; ++k) {
      const int id = next_id_++;
      const TimeNs at = kFar + static_cast<TimeNs>(rng_.below(1000)) * kGrain;
      const Key key = expect(at, id);
      far_.push_back({loop_.schedule_at(at, [this, id] { fire(id); }), key});
    }
  }

  void cancel_far() {
    std::size_t kept = 0;
    for (Timer& t : far_) {
      if (rng_.chance(0.05)) {
        far_[kept++] = t;
        continue;
      }
      t.handle.cancel();
      model_.erase(t.key);
      far_cancelled_++;
    }
    far_.resize(kept);
  }

  void lane_push(int l) {
    if (!budget()) return;
    Lane& lane = *lanes_[static_cast<std::size_t>(l)];
    TimeNs& tail = lane_tail_[l];
    const TimeNs at = std::max(tail, soon(4));
    if (at == tail) lane_ties_++;
    tail = at;
    const int id = next_id_++;
    expect(at, id);
    lane.push(at, id);
  }

  void lane_fired(int id) {
    fire(id);
    act(static_cast<int>(rng_.below(3)));
  }

  void spawn() {
    if (tasks_.size() >= kMaxTasks) return;
    tasks_.reserve(kMaxTasks);  // arm() takes a task's index from its address
    const std::size_t i = tasks_.size();
    Task& t = tasks_.emplace_back();
    t.period = static_cast<DurationNs>(rng_.range(2, 12)) * kGrain;
    t.parkable = rng_.chance(0.5);
    const DurationNs first = static_cast<DurationNs>(rng_.below(8)) * kGrain;
    arm(t, now() + first);
    t.handle = t.parkable ? loop_.schedule_parkable(t.period, [this, i] { return tick(i); }, first)
                          : loop_.schedule_every(t.period, [this, i] { (void)tick(i); }, first);
  }

  bool tick(std::size_t i) {
    fire(kTaskIds + static_cast<int>(i));
    tasks_[i].armed = false;
    running_ = static_cast<int>(i);
    act(static_cast<int>(rng_.below(2)));
    running_ = -1;
    Task& t = tasks_[i];
    const bool found = !t.parkable || t.work > 0;
    if (t.parkable && found) t.work--;
    if (!t.cancelled) {
      if (found) {
        rearm_ = static_cast<int>(i);
        rearm_at_ = now() + t.period;
      } else {
        t.parked = true;
        t.next_at = now() + t.period;
      }
    }
    return found;
  }

  void give_work() {
    if (tasks_.empty()) return;
    const std::size_t i = rng_.below(tasks_.size());
    if (static_cast<int>(i) == running_) return;  // a wake from its own tick keeps it armed
    Task& t = tasks_[i];
    t.work += 1 + static_cast<int>(rng_.below(3));
    loop_.wake(t.handle);
    if (t.cancelled || !t.parked) return;
    t.parked = false;
    const TimeNs behind = now() - t.next_at;
    arm(t, behind > 0 ? t.next_at + (behind + t.period - 1) / t.period * t.period : t.next_at);
  }

  void cancel_task(std::size_t i) {
    Task& t = tasks_[i];
    if (t.cancelled) return;
    t.handle.cancel();
    t.cancelled = true;
    if (t.armed) model_.erase(t.key);
    t.armed = false;
  }

  common::Rng rng_;
  EventLoop loop_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  TimeNs lane_tail_[kLanes] = {};
  std::map<Key, int> model_;  // every event the loop owes, by (time, posting order)
  std::uint64_t order_ = 0;
  std::vector<Task> tasks_;
  std::vector<Timer> timers_;
  std::vector<Timer> far_;
  std::size_t far_cancelled_ = 0;  // since the last run_until
  int rearm_ = -1;                 // task whose tick returned armed, not yet settled
  TimeNs rearm_at_ = 0;
  int running_ = -1;  // task whose tick is executing
  int next_id_ = 0;
  int posts_ = 0;
  int rebuilds_seen_ = 0;
  int lane_ties_ = 0;
  std::string violation_;
};

TEST(EventLoopProperty, DispatchOrderIsTimeThenPostingOrder) {
  std::uint64_t dispatched = 0;
  int rebuilds = 0;
  int ties = 0;
  constexpr std::uint64_t kSeeds = 100;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    DispatchOrderScenario scenario(seed);
    scenario.run();
    ASSERT_EQ(scenario.violation(), "") << "seed " << seed;
    dispatched += scenario.dispatched();
    rebuilds += scenario.rebuilds_seen();
    ties += scenario.lane_ties();
  }
  // The scenarios must exercise what they are for.
  EXPECT_GT(dispatched, 100'000u);
  EXPECT_GE(rebuilds, 3 * static_cast<int>(kSeeds));
  EXPECT_GT(ties, 1000);
}

}  // namespace
}  // namespace migr::sim
