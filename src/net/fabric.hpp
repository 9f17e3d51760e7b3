// Simulated data-center fabric.
//
// Models the paper's testbed: hosts with one NIC port each (default
// 100 Gbps, matching the ConnectX-5 testbed), connected through a single
// switch (fixed propagation delay). Two planes share each port's egress
// bandwidth:
//
//  * data plane  — RDMA packets. Subject to fault injection (loss,
//    reordering), which the "buggy network" tests (§3.4 handling) use.
//  * ctrl plane  — the out-of-band TCP the paper's live-migration tooling
//    uses (CRIU image transfer, partner notification, rkey fetch). Reliable
//    and in-order, but still pays serialization + propagation time, so the
//    "Transfer" component of blackout time is bandwidth-accurate.
//
// Hosts can be partitioned (both planes dropped) to model node failure for
// the Hadoop failover baseline.
//
// One data path: callers resolve a Route (src/dst port pointers + link
// counters) once per connection and send through it, so the per-packet cost
// is plain pointer work instead of 4-6 hash lookups. Every data packet,
// clean fabric or faulty, passes one admission step (send_data): counters,
// egress reservation, then the partition check, the loss draw and the
// reorder draw, in send order. A lost packet is gone; a held-back one gets a
// delivery event of its own. A packet admitted on time waits in its source
// port's lane (sim::EventLane): egress serializes in admission order and
// propagation is constant, so on one port delivery times never decrease,
// and only the lane's head has an event in the loop, under the sequence
// number the packet took at admission.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"

namespace migr::net {

using HostId = std::uint32_t;

/// Inline buffer for the RNIC wire header that frames each data packet.
/// Sized for rnic::WirePacket's serialized header with a little headroom.
using FrameHeader = common::SmallBytes<80>;

struct FabricConfig {
  double link_gbps = 100.0;                    // per-port line rate
  sim::DurationNs propagation = sim::usec(2);  // host -> switch -> host
  std::uint32_t mtu = 4096;                    // data-plane MTU (RoCE default-ish)
  std::uint32_t header_bytes = 58;             // per-packet wire overhead (Eth+IP+UDP+BTH)
};

struct Faults {
  double data_loss_prob = 0.0;  // i.i.d. drop probability on the data plane
  // Reordering: with probability reorder_prob a data packet is held back by a
  // uniform extra delay in (0, reorder_delay], letting later packets overtake
  // it (exercises the receiver's out-of-sequence/NAK path).
  double reorder_prob = 0.0;
  sim::DurationNs reorder_delay = sim::usec(20);
  // Extra one-way latency on the ctrl plane (slow out-of-band TCP; models a
  // congested management network without touching the data plane).
  sim::DurationNs ctrl_delay = 0;
  // i.i.d. drop probability on the ctrl plane. The base ctrl model is a
  // lossless "TCP" stream; this models the management network failing whole
  // messages (exercises the TransferMux chunk retry path). Kept at 0.0 the
  // fault draws no RNG, so the data-plane random sequence — and with it every
  // seeded baseline — is unchanged.
  double ctrl_loss_prob = 0.0;
};

/// A raw data-plane packet: an inline wire header plus a zero-copy payload
/// view. The RNIC layer owns both formats; a packet whose header is not an
/// RNIC wire header (raw test frames) still crosses the fabric, but the
/// RNIC drops it as malformed.
struct Packet {
  Packet() = default;
  Packet(HostId s, HostId d, common::PayloadRef b)
      : src(s), dst(d), body(std::move(b)) {}
  /// Convenience for raw frames (tests): copies `payload` into `body`.
  Packet(HostId s, HostId d, const common::Bytes& payload)
      : src(s), dst(d), body(common::PayloadRef::copy_of(payload)) {}

  HostId src = 0;
  HostId dst = 0;
  FrameHeader header;
  common::PayloadRef body;

  /// Bytes this packet occupies on the wire, excluding fabric framing
  /// overhead (FabricConfig::header_bytes).
  std::size_t wire_size() const noexcept { return header.size() + body.size(); }
};

// Per-port counters. Each attached port also registers itself with the
// process-wide obs::Registry (as "fabric.port{host=H}"), so one registry
// snapshot covers the fabric without callers touching this struct.
struct PortStats {
  std::uint64_t data_packets_tx = 0;
  std::uint64_t data_packets_rx = 0;
  std::uint64_t data_bytes_tx = 0;
  std::uint64_t data_bytes_rx = 0;
  std::uint64_t data_packets_dropped = 0;
  std::uint64_t data_packets_reordered = 0;
  std::uint64_t ctrl_messages_tx = 0;
  std::uint64_t ctrl_bytes_tx = 0;
  std::uint64_t ctrl_messages_dropped = 0;
};

class Fabric {
 public:
  using DataHandler = std::function<void(Packet&&)>;
  /// (source host, payload)
  using CtrlHandler = std::function<void(HostId, common::Bytes&&)>;

  struct Route;
  /// A packet admitted on time, waiting in its source port's lane.
  struct InFlight {
    Route* route = nullptr;
    Packet packet;
  };
  struct DeliverInFlight {
    Fabric* fabric;
    void operator()(InFlight&& f) const { fabric->deliver(*f.route, std::move(f.packet)); }
  };

  /// One attached host port. Stable address for the fabric's lifetime
  /// (callers treat it as opaque; it is public only so Route can be).
  struct Port {
    Port(HostId host, Fabric& fabric) : id(host), lane(fabric.loop_, {&fabric}) {}

    HostId id = 0;
    sim::TimeNs egress_free_at = 0;  // when the port finishes its current tx
    bool is_partitioned = false;
    DataHandler handler;
    PortStats stats;
    std::uint64_t source_id = 0;  // obs registry source handle
    /// Packets admitted on time, in admission order.
    sim::EventLane<InFlight, DeliverInFlight> lane;
  };

  /// Resolved (src, dst) fast-path handle: port pointers plus the directed
  /// link's registry counters, all hash-free on the per-packet path. Stable
  /// address for the fabric's lifetime; resolve once per connection.
  struct Route {
    Port* src = nullptr;
    Port* dst = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* packets = nullptr;
    obs::Counter* drops = nullptr;
  };

  Fabric(sim::EventLoop& loop, FabricConfig config = {}, std::uint64_t seed = 1)
      : loop_(loop), config_(config), rng_(seed) {}
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const FabricConfig& config() const noexcept { return config_; }
  sim::EventLoop& loop() noexcept { return loop_; }

  /// Attach a host. Host ids are caller-chosen and must be unique.
  common::Status attach_host(HostId host);
  bool attached(HostId host) const { return ports_.contains(host); }

  /// Install the data-plane receive handler for a host (the RNIC).
  void set_data_handler(HostId host, DataHandler handler);

  /// Register a named ctrl-plane service on a host (e.g. "migr.notify").
  void register_service(HostId host, std::string name, CtrlHandler handler);
  void unregister_service(HostId host, const std::string& name);
  /// A fresh number for a set of services named by one owner instance (a
  /// migration's or an FT protection's TransferMux), so a retried owner never
  /// collides with a lingering one. Counted per fabric: identical
  /// simulations name their services identically.
  std::uint64_t next_service_instance() noexcept { return service_instances_++; }

  /// Resolve the fast-path handle for (src, dst). Returns nullptr unless
  /// both hosts are attached. The pointer stays valid for the fabric's
  /// lifetime (ports never detach).
  Route* route(HostId src, HostId dst);

  /// Send a data-plane packet. Serialization on the source port + switch
  /// propagation; may be dropped per fault config or partition.
  void send_data(Packet packet);
  /// Same semantics through a pre-resolved route. This is the admission
  /// step: tx counters, egress reservation, then the partition check, the
  /// loss draw and, for a surviving packet, the reorder draw.
  void send_data(Route& r, Packet&& packet);

  /// Flight recorder fed by the admission step and by mid-flight partition
  /// drops (defaults to the process-wide one; nullptr resets to it). While
  /// the recorder is disabled the per-packet cost is a single predictable
  /// branch.
  void set_recorder(obs::FlightRecorder* rec) noexcept {
    recorder_ = rec == nullptr ? &obs::FlightRecorder::global() : rec;
  }

  /// Send a reliable ctrl-plane message to `service` on `dst`. Delivery is
  /// in-order per (src,dst) pair. Returns the simulated time at which the
  /// last byte leaves the source port (useful to model blocking transfers),
  /// or not_found if either endpoint is unattached (the message is dropped —
  /// callers must not mistake that for instant serialization).
  common::Result<sim::TimeNs> send_ctrl(HostId src, HostId dst, const std::string& service,
                                        common::Bytes payload);

  /// Duration to push `bytes` through one port at line rate (no queueing).
  sim::DurationNs wire_time(std::uint64_t bytes) const {
    return sim::transmit_time(bytes, config_.link_gbps);
  }

  /// Stable pointer to the time `host`'s egress port finishes serializing
  /// everything queued on it; NIC transmit schedulers pace themselves on
  /// it. nullptr if unattached.
  const sim::TimeNs* egress_clock(HostId host) const {
    auto it = ports_.find(host);
    return it == ports_.end() ? nullptr : &it->second.egress_free_at;
  }

  void set_faults(Faults f) noexcept { faults_ = f; }
  const Faults& faults() const noexcept { return faults_; }

  /// Partitioned hosts silently lose all traffic in and out (node failure).
  /// Works for not-yet-attached hosts too (the flag carries over on attach).
  void set_partitioned(HostId host, bool partitioned);
  bool partitioned(HostId host) const {
    auto it = ports_.find(host);
    if (it != ports_.end()) return it->second.is_partitioned;
    return partitioned_orphans_.contains(host);
  }

  const PortStats& stats(HostId host) const;

 private:
  /// Registry counters for one directed link (src->dst through the switch),
  /// resolved once per pair and cached for O(1) hot-path increments.
  struct LinkCounters {
    obs::Counter* bytes = nullptr;
    obs::Counter* packets = nullptr;
    obs::Counter* drops = nullptr;
  };
  LinkCounters& link_counters(HostId src, HostId dst);

  /// Reserve egress time for `wire_bytes` on `src`'s port; returns the time
  /// the last bit has been serialized.
  sim::TimeNs reserve_egress(Port& port, std::uint64_t wire_bytes);

  void deliver(Route& r, Packet&& packet);
  /// Append one observation to the flight recorder (caller already checked
  /// recorder_->enabled()).
  void record_packet(const Packet& p, obs::PacketVerdict verdict, sim::TimeNs at);

  sim::EventLoop& loop_;
  FabricConfig config_;
  common::Rng rng_;
  Faults faults_;
  std::unordered_map<HostId, Port> ports_;                 // node-stable addresses
  std::unordered_map<std::uint64_t, LinkCounters> links_;  // (src<<32)|dst
  std::unordered_map<std::uint64_t, Route> routes_;        // (src<<32)|dst
  std::map<std::pair<HostId, std::string>, CtrlHandler> services_;
  std::uint64_t service_instances_ = 0;
  std::unordered_set<HostId> partitioned_orphans_;  // partitioned but unattached
  obs::FlightRecorder* recorder_ = &obs::FlightRecorder::global();
};

}  // namespace migr::net
