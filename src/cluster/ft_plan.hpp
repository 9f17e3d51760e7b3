// Scheduler-driven standby selection and epoch-cadence policy for
// continuous fault tolerance.
//
// Protecting a guest needs two cluster-level decisions the FtController
// itself is agnostic about:
//
//   * where the standby lives — the least-loaded of the hosts a migration
//     could go to (so maintenance mode and partitions apply to standbys for
//     free), additionally excluding every host that holds one of the
//     guest's messaging partners: a standby sharing a failure domain with a
//     partner would turn one host loss into a correlated guest+partner loss.
//
//   * how often to checkpoint — derived from the guest's TrafficProfile: the
//     epoch interval targets a fixed byte budget per epoch
//     (ft::budget_epoch_interval), so write-heavy guests checkpoint often
//     (bounded loss window) and quiet guests stop paying freeze tax for
//     near-empty epochs. The same budget is forwarded to
//     FtOptions::epoch_byte_budget so the controller's sampled dirty-rate
//     estimator keeps adapting the cadence while protected.
#pragma once

#include <vector>

#include "cluster/cluster.hpp"
#include "ft/ft.hpp"

namespace migr::cluster {

/// One protection assignment: guest, its primary, the chosen standby, and
/// the initial checkpoint cadence.
struct FtPlanEntry {
  GuestId guest = 0;
  net::HostId primary = 0;
  net::HostId backup = 0;
  sim::DurationNs epoch_interval = 0;
};

class FtPlanner {
 public:
  /// Target bytes dirtied per epoch.
  static constexpr std::uint64_t kEpochByteBudget = 256ull << 10;

  explicit FtPlanner(ClusterModel& model) : model_(model) {}

  /// Pick a standby host and cadence for one placed guest. not_found when
  /// no eligible host remains (fleet draining/partitioned, or every host
  /// holds a partner and nothing else is placeable).
  common::Result<FtPlanEntry> plan(GuestId guest);

  /// Plan every placed guest (sorted by id; deterministic). Guests with no
  /// eligible standby are skipped.
  std::vector<FtPlanEntry> plan_all();

  /// Derived cadence for a profile: budget / dirty rate, clamped; FtOptions'
  /// default interval for clean/idle guests.
  sim::DurationNs epoch_interval_for(const TrafficProfile& profile) const;

  /// Translate a plan entry into controller options layered on `base`
  /// (cadence and adaptive budget — everything else untouched).
  ft::FtOptions options_for(const FtPlanEntry& entry, ft::FtOptions base = {}) const;

 private:
  ClusterModel& model_;
};

}  // namespace migr::cluster
