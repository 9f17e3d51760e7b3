// Fleet model: the cluster-wide substrate the orchestration layer schedules
// against. A ClusterModel owns N simulated hosts (RNIC + MigrRDMA runtime
// each), the guest directory, and a registry of placed guests — MsgNode
// endpoints with per-guest traffic profiles (message rate/size, extra
// registered memory, dirty-page churn) so a fleet under migration generates
// realistic dirty-copy and wait-before-stop work.
//
// The model is deliberately passive: it answers placement questions (who is
// where, how loaded is each host, which hosts can take new guests) and owns
// guest lifetime; all migration decisions live in MigrationScheduler /
// DrainWorkflow. The GuestDirectory stays the single source of truth for
// guest location — the model never caches placements.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "apps/msg_node.hpp"
#include "migr/migration.hpp"
#include "rnic/world.hpp"

namespace migr::cluster {

using migrlib::GuestDirectory;
using migrlib::GuestId;
using migrlib::MigrRdmaRuntime;

struct ClusterConfig {
  std::uint32_t hosts = 4;       // host ids 1..hosts
  net::FabricConfig fabric = {};
  std::uint64_t seed = 42;
  apps::MsgNodeConfig msg = {};  // shared MsgNode settings for all guests
};

/// Per-guest workload description. The model runs the generators; profiles
/// also feed placement (traffic-weighted load).
struct TrafficProfile {
  sim::DurationNs send_interval = 0;   // 0 = idle guest (no generator)
  std::uint32_t msg_bytes = 512;       // payload per message
  std::uint64_t extra_mem_bytes = 0;   // extra registered MR (dirty-copy volume)
  sim::DurationNs dirty_interval = 0;  // 0 = clean; else touch every page per tick

  /// Steady-state offered load in bytes/sec (0 for idle guests).
  double bytes_per_sec() const {
    if (send_interval <= 0) return 0.0;
    return static_cast<double>(msg_bytes) * 1e9 / static_cast<double>(send_interval);
  }

  /// Steady-state page-dirtying rate in bytes/sec (0 for clean guests). The
  /// dirtier stamps one byte per page but dirties the whole page, so the
  /// rate is page-granular — this is what migration-mode policies compare
  /// against link bandwidth.
  double dirty_bytes_per_sec() const {
    if (dirty_interval <= 0 || extra_mem_bytes == 0) return 0.0;
    const std::uint64_t pages = (extra_mem_bytes + 4095) / 4096;
    return static_cast<double>(pages * 4096) * 1e9 / static_cast<double>(dirty_interval);
  }
};

class ClusterModel {
 public:
  explicit ClusterModel(ClusterConfig config = {});
  ~ClusterModel();
  ClusterModel(const ClusterModel&) = delete;
  ClusterModel& operator=(const ClusterModel&) = delete;

  sim::EventLoop& loop() noexcept { return world_.loop(); }
  net::Fabric& fabric() noexcept { return world_.fabric(); }
  rnic::World& world() noexcept { return world_; }
  GuestDirectory& directory() noexcept { return directory_; }
  MigrRdmaRuntime& runtime(net::HostId host) { return *runtimes_.at(host); }
  rnic::Device& device(net::HostId host) { return *devices_.at(host); }
  const std::vector<net::HostId>& hosts() const noexcept { return hosts_; }

  /// Place a new guest (a MsgNode with the model's MsgNodeConfig) on `host`.
  /// The profile's extra memory is mmapped and registered immediately; its
  /// traffic generator starts once the guest is connected to a peer.
  common::Result<apps::MsgNode*> add_guest(net::HostId host, GuestId id,
                                           TrafficProfile profile = {});
  /// RC-connect two placed guests and start both traffic generators.
  common::Status connect_guests(GuestId a, GuestId b);

  apps::MsgNode* guest(GuestId id) const;
  migrlib::MigratableApp* app_of(GuestId id) const;
  const TrafficProfile* profile_of(GuestId id) const;
  /// Static messaging topology (who this guest exchanges traffic with).
  std::vector<GuestId> partners_of(GuestId id) const;

  // ---- placement queries (directory-backed) ----
  net::HostId host_of(GuestId id) const { return directory_.locate(id); }
  std::vector<GuestId> guests_on(net::HostId host) const;  // sorted by id
  std::vector<GuestId> all_guests() const;                 // sorted by id
  std::size_t guest_count(net::HostId host) const;
  /// Sum of the offered loads (bytes/sec) of the guests on `host`.
  double traffic_weight(net::HostId host) const;

  /// Draining hosts accept no new placements (maintenance mode). The flag is
  /// advisory: placement consults it, the scheduler does not enforce it for
  /// explicitly-pinned destinations.
  void set_draining(net::HostId host, bool draining);
  bool draining(net::HostId host) const { return draining_.contains(host); }
  /// Hosts eligible as migration destinations: attached, not draining, not
  /// partitioned, and != exclude. Sorted by host id.
  std::vector<net::HostId> placeable_hosts(net::HostId exclude = 0) const;
  /// The placement rule every scheduler and planner uses: the candidate
  /// with the fewest guests, then the lower offered traffic, then the lower
  /// host id. not_found on an empty set.
  common::Result<net::HostId> least_loaded(const std::vector<net::HostId>& candidates) const;

  /// Auto-converge throttle: skip `factor` of the guest's traffic and dirty
  /// generator ticks (0 = full speed, clamped to 0.95). Wired into
  /// MigrationOptions::throttle by the scheduler so a diverging pre-copy can
  /// slow the guest until the dirty rate fits the link.
  void set_throttle(GuestId id, double factor);
  double throttle_of(GuestId id) const;

  /// Arm the SLI taps (RTT, goodput, retransmits) on every placed guest and
  /// on guests added afterwards. No-op per guest when the hub is disabled.
  void enable_sli(obs::SliHub& hub);

  /// Fleet-wide QP health check: total stuck QPs across every device.
  std::size_t audit_stuck_qps(sim::DurationNs stale_after) const;
  /// Port counters summed over every device (the fleet's wire split).
  rnic::PortCounters wire_counters() const;

  void run_for(sim::DurationNs d) { loop().run_until(loop().now() + d); }

 private:
  struct GuestRecord {
    GuestId id = 0;
    TrafficProfile profile;
    std::unique_ptr<apps::MsgNode> node;
    std::vector<GuestId> peers;       // connected traffic targets
    common::Bytes payload;            // what every generator tick sends
    std::uint64_t extra_buf = 0;      // base address of the extra MR
    std::size_t rr_cursor = 0;        // round-robin over peers
    std::uint8_t dirty_stamp = 0;     // rolling byte written by the dirtier
    double throttle = 0;              // fraction of generator ticks skipped
    double traffic_acc = 0;           // token buckets for fractional skips,
    double dirty_acc = 0;             //   one per generator task
    bool generating = false;
    sim::EventHandle traffic_task;
    sim::EventHandle dirty_task;
  };

  void start_generator(GuestRecord& rec);

  ClusterConfig config_;
  rnic::World world_;
  GuestDirectory directory_;
  std::vector<net::HostId> hosts_;
  std::map<net::HostId, rnic::Device*> devices_;
  std::map<net::HostId, std::unique_ptr<MigrRdmaRuntime>> runtimes_;
  std::map<GuestId, GuestRecord> guests_;  // ordered: deterministic iteration
  std::set<net::HostId> draining_;
  obs::SliHub* sli_hub_ = nullptr;  // set by enable_sli; arms future guests too
};

}  // namespace migr::cluster
