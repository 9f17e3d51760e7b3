// Core event-loop semantics the rest of the simulator leans on. These pin
// down the contract of the pooled fast path: slot reuse and generation
// counters must not let a cancelled or stale handle touch a recycled slot,
// and dispatch order must stay FIFO among equal timestamps (the fabric's
// in-order delivery guarantee rides on that tie-break). A parked task must
// leave the heap and come back exactly where it would have been.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

TEST(EventLoopCore, WakeOnAGridTickKeepsTheAlwaysTickingOrder) {
  // Work landing exactly on a grid tick is seen on that tick only if the
  // landing event was queued before the tick was, one period earlier. A
  // parked task must see it exactly where an always-ticking one does.
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
  EXPECT_EQ(first_seen(/*parks=*/true, usec(97)), usec(105));
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

}  // namespace
}  // namespace migr::sim
