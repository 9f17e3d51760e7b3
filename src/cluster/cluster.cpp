#include "cluster/cluster.hpp"

#include <algorithm>
#include <tuple>

#include "common/log.hpp"

namespace migr::cluster {

using common::Errc;
using common::Status;

namespace {
// Deterministic token bucket: skip exactly `factor` of the ticks, spread
// evenly, regardless of tick period.
bool throttled_tick(double factor, double& acc) {
  if (factor <= 0) return false;
  acc += factor;
  if (acc < 1.0) return false;
  acc -= 1.0;
  return true;
}
}  // namespace

ClusterModel::ClusterModel(ClusterConfig config)
    : config_(config), world_(config.fabric, config.seed) {
  for (net::HostId h = 1; h <= config_.hosts; ++h) {
    hosts_.push_back(h);
    devices_[h] = &world_.add_device(h);
    runtimes_[h] = std::make_unique<MigrRdmaRuntime>(directory_, *devices_[h],
                                                     world_.fabric());
  }
}

ClusterModel::~ClusterModel() {
  for (auto& [id, rec] : guests_) {
    rec.traffic_task.cancel();
    rec.dirty_task.cancel();
  }
}

common::Result<apps::MsgNode*> ClusterModel::add_guest(net::HostId host, GuestId id,
                                                       TrafficProfile profile) {
  auto rt = runtimes_.find(host);
  if (rt == runtimes_.end()) return common::err(Errc::not_found, "no such host");
  if (guests_.contains(id)) {
    return common::err(Errc::already_exists, "guest id already placed");
  }
  auto& proc = world_.add_process("guest-" + std::to_string(id));
  GuestRecord rec;
  rec.id = id;
  rec.profile = profile;
  // Keep the generator's payload inside one message slot (4-byte framing).
  rec.profile.msg_bytes =
      std::min(rec.profile.msg_bytes, config_.msg.max_msg > 4 ? config_.msg.max_msg - 4 : 1u);
  rec.node = std::make_unique<apps::MsgNode>(*rt->second, proc, id, config_.msg);
  if (profile.extra_mem_bytes > 0) {
    auto addr = proc.mem().mmap(profile.extra_mem_bytes, "fleet_extra");
    if (!addr.is_ok()) return addr.status();
    rec.extra_buf = addr.value();
    auto mr = rec.node->guest().reg_mr(rec.node->pd(), rec.extra_buf,
                                       profile.extra_mem_bytes, rnic::kAccessLocalWrite);
    if (!mr.is_ok()) return mr.status();
  }
  auto [it, inserted] = guests_.emplace(id, std::move(rec));
  GuestRecord& stored = it->second;
  if (sli_hub_ != nullptr) stored.node->enable_sli(*sli_hub_);
  if (profile.dirty_interval > 0 && stored.extra_buf != 0) {
    // Page-granular churn over the extra MR: keeps the pre-copy rounds and
    // the final diff non-trivial. Pauses while the guest's process is frozen
    // (mid-blackout) — dirtying then would be writing into a stopped task.
    stored.dirty_task = loop().schedule_every(profile.dirty_interval, [this, id] {
      auto g = guests_.find(id);
      if (g == guests_.end() || g->second.extra_buf == 0) return;
      GuestRecord& r = g->second;
      if (r.node->process().frozen()) return;
      if (throttled_tick(r.throttle, r.dirty_acc)) return;
      const std::uint8_t stamp = ++r.dirty_stamp;
      for (std::uint64_t off = 0; off < r.profile.extra_mem_bytes; off += 4096) {
        (void)r.node->process().mem().write(r.extra_buf + off, {&stamp, 1});
      }
    });
  }
  return stored.node.get();
}

Status ClusterModel::connect_guests(GuestId a, GuestId b) {
  auto ia = guests_.find(a);
  auto ib = guests_.find(b);
  if (ia == guests_.end() || ib == guests_.end()) {
    return common::err(Errc::not_found, "guest not placed");
  }
  MIGR_RETURN_IF_ERROR(apps::MsgNode::connect(*ia->second.node, *ib->second.node));
  ia->second.peers.push_back(b);
  ib->second.peers.push_back(a);
  ia->second.node->start();
  ib->second.node->start();
  start_generator(ia->second);
  start_generator(ib->second);
  return Status::ok();
}

void ClusterModel::start_generator(GuestRecord& rec) {
  if (rec.generating || rec.profile.send_interval <= 0) return;
  rec.generating = true;
  rec.payload.assign(rec.profile.msg_bytes, 0xA5);
  // Scheduled on the raw loop (not a process poller) so it survives the
  // source process being killed at migration commit; it checks the guest's
  // *current* process each tick and idles while that process is frozen.
  rec.traffic_task = loop().schedule_every(rec.profile.send_interval, [this, id = rec.id] {
    auto it = guests_.find(id);
    if (it == guests_.end()) return;
    GuestRecord& r = it->second;
    if (r.peers.empty() || r.node->process().frozen()) return;
    if (throttled_tick(r.throttle, r.traffic_acc)) return;
    const GuestId peer = r.peers[r.rr_cursor++ % r.peers.size()];
    // Window-full / suspension failures are dropped; the generator offers
    // fresh load on its next tick (open-loop source).
    (void)r.node->send(peer, r.payload);
  });
}

apps::MsgNode* ClusterModel::guest(GuestId id) const {
  auto it = guests_.find(id);
  return it == guests_.end() ? nullptr : it->second.node.get();
}

migrlib::MigratableApp* ClusterModel::app_of(GuestId id) const { return guest(id); }

const TrafficProfile* ClusterModel::profile_of(GuestId id) const {
  auto it = guests_.find(id);
  return it == guests_.end() ? nullptr : &it->second.profile;
}

std::vector<GuestId> ClusterModel::partners_of(GuestId id) const {
  auto it = guests_.find(id);
  return it == guests_.end() ? std::vector<GuestId>{} : it->second.peers;
}

std::vector<GuestId> ClusterModel::guests_on(net::HostId host) const {
  std::vector<GuestId> out;
  for (const auto& [id, rec] : guests_) {
    if (directory_.locate(id) == host) out.push_back(id);
  }
  return out;
}

std::vector<GuestId> ClusterModel::all_guests() const {
  std::vector<GuestId> out;
  out.reserve(guests_.size());
  for (const auto& [id, rec] : guests_) out.push_back(id);
  return out;
}

std::size_t ClusterModel::guest_count(net::HostId host) const {
  return guests_on(host).size();
}

double ClusterModel::traffic_weight(net::HostId host) const {
  double w = 0;
  for (const auto& [id, rec] : guests_) {
    if (directory_.locate(id) == host) w += rec.profile.bytes_per_sec();
  }
  return w;
}

void ClusterModel::set_draining(net::HostId host, bool draining) {
  if (draining) {
    draining_.insert(host);
  } else {
    draining_.erase(host);
  }
}

std::vector<net::HostId> ClusterModel::placeable_hosts(net::HostId exclude) const {
  std::vector<net::HostId> out;
  for (net::HostId h : hosts_) {
    if (h == exclude || draining_.contains(h)) continue;
    if (world_.fabric().partitioned(h)) continue;
    out.push_back(h);
  }
  return out;
}

common::Result<net::HostId> ClusterModel::least_loaded(
    const std::vector<net::HostId>& candidates) const {
  if (candidates.empty()) return common::err(Errc::not_found, "no placeable host");
  auto load = [this](net::HostId h) {
    return std::make_tuple(guest_count(h), traffic_weight(h), h);
  };
  auto best = load(candidates.front());
  for (net::HostId h : candidates) best = std::min(best, load(h));
  return std::get<2>(best);
}

void ClusterModel::set_throttle(GuestId id, double factor) {
  auto it = guests_.find(id);
  if (it == guests_.end()) return;
  GuestRecord& r = it->second;
  r.throttle = std::clamp(factor, 0.0, 0.95);
  if (r.throttle == 0) {
    r.traffic_acc = 0;
    r.dirty_acc = 0;
  }
}

double ClusterModel::throttle_of(GuestId id) const {
  auto it = guests_.find(id);
  return it == guests_.end() ? 0.0 : it->second.throttle;
}

void ClusterModel::enable_sli(obs::SliHub& hub) {
  sli_hub_ = &hub;
  for (auto& [id, rec] : guests_) rec.node->enable_sli(hub);
}

std::size_t ClusterModel::audit_stuck_qps(sim::DurationNs stale_after) const {
  std::size_t total = 0;
  for (const auto& [h, dev] : devices_) total += dev->audit_stuck_qps(stale_after).size();
  return total;
}

rnic::PortCounters ClusterModel::wire_counters() const {
  rnic::PortCounters total;
  for (const auto& [h, dev] : devices_) total += dev->counters();
  return total;
}

}  // namespace migr::cluster
