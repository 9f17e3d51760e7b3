#include "cluster/ft_plan.hpp"

#include <algorithm>

namespace migr::cluster {

using common::Errc;

sim::DurationNs FtPlanner::epoch_interval_for(const TrafficProfile& profile) const {
  const double rate = profile.dirty_bytes_per_sec();
  if (rate <= 0) return ft::FtOptions{}.epoch_interval;
  return ft::budget_epoch_interval(kEpochByteBudget, rate);
}

common::Result<FtPlanEntry> FtPlanner::plan(GuestId guest) {
  const net::HostId primary = model_.host_of(guest);
  if (primary == 0) return common::err(Errc::not_found, "guest not placed");

  // Standby candidates: migration-placeable hosts minus every host holding
  // a messaging partner (a shared failure domain would make one host loss
  // take out guest and partner together).
  std::vector<net::HostId> eligible = model_.placeable_hosts(primary);
  for (GuestId pid : model_.partners_of(guest)) {
    const net::HostId ph = model_.host_of(pid);
    eligible.erase(std::remove(eligible.begin(), eligible.end(), ph), eligible.end());
  }
  auto backup = model_.least_loaded(eligible);
  if (!backup.is_ok()) return common::err(Errc::not_found, "no eligible standby host");

  FtPlanEntry entry;
  entry.guest = guest;
  entry.primary = primary;
  entry.backup = backup.value();
  const TrafficProfile* profile = model_.profile_of(guest);
  entry.epoch_interval =
      profile != nullptr ? epoch_interval_for(*profile) : ft::FtOptions{}.epoch_interval;
  return entry;
}

std::vector<FtPlanEntry> FtPlanner::plan_all() {
  std::vector<FtPlanEntry> out;
  for (GuestId id : model_.all_guests()) {
    auto entry = plan(id);
    if (entry.is_ok()) out.push_back(entry.value());
  }
  return out;
}

ft::FtOptions FtPlanner::options_for(const FtPlanEntry& entry, ft::FtOptions base) const {
  base.epoch_interval = entry.epoch_interval;
  base.epoch_byte_budget = kEpochByteBudget;
  return base;
}

}  // namespace migr::cluster
