// A simulated process: an address space plus application tasks on the event
// loop. Freezing a process (what CRIU does at stop-and-copy) stops its tasks
// — but deliberately does NOT stop the RNIC, which keeps executing posted
// work requests against the process's memory. That asymmetry is the core
// difficulty the paper's wait-before-stop exists to solve.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "proc/address_space.hpp"
#include "sim/event_loop.hpp"

namespace migr::proc {

using Pid = std::uint32_t;

class SimProcess {
 public:
  SimProcess(Pid pid, std::string name, sim::EventLoop& loop)
      : pid_(pid), name_(std::move(name)), loop_(loop) {}

  ~SimProcess() { kill(); }
  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  Pid pid() const noexcept { return pid_; }
  const std::string& name() const noexcept { return name_; }
  AddressSpace& mem() noexcept { return mem_; }
  const AddressSpace& mem() const noexcept { return mem_; }
  sim::EventLoop& loop() noexcept { return loop_; }

  bool frozen() const noexcept { return frozen_; }
  bool alive() const noexcept { return alive_; }

  /// Freeze application tasks (they stop firing until thawed). Idempotent.
  void freeze() noexcept { frozen_ = true; }
  /// Thawing wakes the tasks that parked while frozen.
  void thaw() {
    frozen_ = false;
    wake_tasks();
  }

  /// Terminate: all tasks cancelled, process marked dead.
  void kill() {
    alive_ = false;
    for (auto& h : tasks_) h.cancel();
    tasks_.clear();
    wakeable_.clear();
  }

  /// Run `tick` every `period` ns, on the grid spawn time + k * period, for
  /// as long as it reports work. A tick that returns false parks the task:
  /// its event leaves the loop until a wake re-arms it at its next grid tick,
  /// so an idle poller costs nothing. This is how polling "threads" (message
  /// and perftest loops, the MigrRDMA wait-before-stop thread) are modelled.
  /// An application task also parks while the process is frozen; a `daemon`
  /// keeps running through a freeze, and only its owner wakes it (through
  /// loop().wake). Every task stops on kill.
  sim::EventHandle spawn_task(sim::DurationNs period, std::function<bool()> tick,
                              bool daemon = false) {
    auto handle = loop_.schedule_parkable(period, [this, daemon, tick = std::move(tick)]() {
      return alive_ && (daemon || !frozen_) && tick();
    });
    tasks_.push_back(handle);
    if (!daemon) wakeable_.push_back(handle);
    return handle;
  }

  /// Re-arm every parked application task; a frozen process waits for
  /// thaw(). Called wherever a task may have work again: a completion
  /// pushed to one of the process's CQs, a suspension lift, a thaw.
  void wake_tasks() {
    if (frozen_) return;
    for (const auto& h : wakeable_) loop_.wake(h);
  }

  /// Run `fn` every `period` ns while the process is alive and not frozen,
  /// without ever parking — for tasks that generate work rather than poll
  /// for it (traffic sources, heartbeats).
  sim::EventHandle spawn_poller(sim::DurationNs period, std::function<void()> fn) {
    auto handle = loop_.schedule_every(period, [this, fn = std::move(fn)]() {
      if (alive_ && !frozen_) fn();
    });
    tasks_.push_back(handle);
    return handle;
  }

 private:
  Pid pid_;
  std::string name_;
  sim::EventLoop& loop_;
  AddressSpace mem_;
  bool frozen_ = false;
  bool alive_ = true;
  std::vector<sim::EventHandle> tasks_;
  std::vector<sim::EventHandle> wakeable_;  // the application tasks of tasks_
};

}  // namespace migr::proc
