#include "net/fabric.hpp"

#include <utility>
#include <vector>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace migr::net {

using common::Errc;
using common::Status;

namespace {

// The RNIC wire-header layout pinned by rnic::WirePacket::serialize_header:
// op u8 at [0], dst_qpn u32le at [1..4], src_qpn u32le at [5..8], psn u64le
// at [9..16]; 71 bytes total. net cannot depend on rnic, so the flight
// recorder peeks the three fields it needs at fixed offsets; a header of
// any other size records as "not RNIC-framed" (opcode 0xff).
constexpr std::size_t kRnicHeaderBytes = 71;

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

}  // namespace

void Fabric::record_packet(const Packet& p, obs::PacketVerdict verdict, sim::TimeNs at) {
  obs::PacketRecord rec;
  rec.ts_ns = at;
  rec.src = p.src;
  rec.dst = p.dst;
  rec.bytes = static_cast<std::uint32_t>(p.wire_size());
  rec.verdict = verdict;
  if (p.header.size() == kRnicHeaderBytes) {
    const std::uint8_t* h = p.header.data();
    rec.opcode = h[0];
    rec.qpn = load_le32(h + 1);
    rec.psn = load_le64(h + 9);
  }
  recorder_->record(rec);
}

Fabric::~Fabric() {
  for (auto& [host, port] : ports_) {
    (void)host;
    if (port.source_id != 0) obs::Registry::global().unregister_source(port.source_id);
  }
}

Status Fabric::attach_host(HostId host) {
  if (ports_.contains(host)) {
    return common::err(Errc::already_exists, "host already attached");
  }
  Port& port = ports_.try_emplace(host, host, *this).first->second;
  if (partitioned_orphans_.erase(host) > 0) port.is_partitioned = true;
  // Register the port's stats with the process-wide registry so one
  // snapshot covers all fabric layers; the struct stays the accessor API.
  port.source_id = obs::Registry::global().register_source(
      "fabric.port", {{"host", std::to_string(host)}}, [this, host] {
        const PortStats& s = stats(host);
        return std::vector<std::pair<std::string, double>>{
            {"data_packets_tx", static_cast<double>(s.data_packets_tx)},
            {"data_packets_rx", static_cast<double>(s.data_packets_rx)},
            {"data_bytes_tx", static_cast<double>(s.data_bytes_tx)},
            {"data_bytes_rx", static_cast<double>(s.data_bytes_rx)},
            {"data_packets_dropped", static_cast<double>(s.data_packets_dropped)},
            {"data_packets_reordered", static_cast<double>(s.data_packets_reordered)},
            {"ctrl_messages_tx", static_cast<double>(s.ctrl_messages_tx)},
            {"ctrl_bytes_tx", static_cast<double>(s.ctrl_bytes_tx)},
            {"ctrl_messages_dropped", static_cast<double>(s.ctrl_messages_dropped)},
        };
      });
  return Status::ok();
}

Fabric::LinkCounters& Fabric::link_counters(HostId src, HostId dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  auto it = links_.find(key);
  if (it == links_.end()) {
    auto& reg = obs::Registry::global();
    const obs::Labels labels{{"link", std::to_string(src) + "-" + std::to_string(dst)}};
    LinkCounters lc;
    lc.bytes = &reg.counter("fabric.link.bytes", labels);
    lc.packets = &reg.counter("fabric.link.packets", labels);
    lc.drops = &reg.counter("fabric.link.drops", labels);
    it = links_.emplace(key, lc).first;
  }
  return it->second;
}

void Fabric::set_data_handler(HostId host, DataHandler handler) {
  auto it = ports_.find(host);
  if (it == ports_.end()) {
    MIGR_WARN() << "data handler for unattached host " << host;
    return;
  }
  it->second.handler = std::move(handler);
}

void Fabric::register_service(HostId host, std::string name, CtrlHandler handler) {
  services_[{host, std::move(name)}] = std::move(handler);
}

void Fabric::unregister_service(HostId host, const std::string& name) {
  services_.erase({host, name});
}

Fabric::Route* Fabric::route(HostId src, HostId dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  auto it = routes_.find(key);
  if (it != routes_.end()) return &it->second;
  auto src_it = ports_.find(src);
  auto dst_it = ports_.find(dst);
  if (src_it == ports_.end() || dst_it == ports_.end()) return nullptr;
  LinkCounters& lc = link_counters(src, dst);
  // ports_ and routes_ are node-based maps: element addresses survive
  // rehashing, so handing out raw pointers is safe for the fabric's lifetime.
  Route r{&src_it->second, &dst_it->second, lc.bytes, lc.packets, lc.drops};
  return &routes_.emplace(key, r).first->second;
}

sim::TimeNs Fabric::reserve_egress(Port& port, std::uint64_t wire_bytes) {
  const sim::TimeNs start = std::max(loop_.now(), port.egress_free_at);
  port.egress_free_at = start + wire_time(wire_bytes);
  return port.egress_free_at;
}

void Fabric::send_data(Packet packet) {
  Route* r = route(packet.src, packet.dst);
  if (r == nullptr) {
    MIGR_WARN() << "data packet to/from unattached host " << packet.src << "->" << packet.dst;
    return;
  }
  send_data(*r, std::move(packet));
}

void Fabric::send_data(Route& r, Packet&& packet) {
  const std::size_t frame_bytes = packet.wire_size();
  r.src->stats.data_packets_tx++;
  r.src->stats.data_bytes_tx += frame_bytes;
  r.packets->inc();
  r.bytes->inc(frame_bytes);

  // Serialization happens (and consumes bandwidth) even for packets that
  // will be dropped in the network.
  sim::TimeNs at =
      reserve_egress(*r.src, frame_bytes + config_.header_bytes) + config_.propagation;
  const bool recording = recorder_->enabled();

  const bool part = r.src->is_partitioned || r.dst->is_partitioned;
  if (part || (faults_.data_loss_prob > 0 && rng_.chance(faults_.data_loss_prob))) {
    r.src->stats.data_packets_dropped++;
    r.drops->inc();
    if (recording) {
      record_packet(packet,
                    part ? obs::PacketVerdict::partitioned : obs::PacketVerdict::dropped,
                    loop_.now());
    }
    return;
  }

  if (faults_.reorder_prob > 0 && faults_.reorder_delay > 0 &&
      rng_.chance(faults_.reorder_prob)) {
    // Hold this packet back so packets serialized after it can overtake it:
    // it leaves the lane's order for a delivery event of its own.
    at += static_cast<sim::DurationNs>(
        rng_.range(1, static_cast<std::uint64_t>(faults_.reorder_delay)));
    r.src->stats.data_packets_reordered++;
    if (recording) record_packet(packet, obs::PacketVerdict::reordered, loop_.now());
    loop_.post_at(at, [this, rp = &r, packet = std::move(packet)]() mutable {
      deliver(*rp, std::move(packet));
    });
    return;
  }
  if (recording) record_packet(packet, obs::PacketVerdict::delivered, loop_.now());
  // Egress serializes in admission order and propagation is constant: the
  // lane's delivery times never decrease (EventLane::push asserts).
  r.src->lane.push(at, InFlight{&r, std::move(packet)});
}

void Fabric::deliver(Route& r, Packet&& packet) {
  // Faults may have flipped between serialization and arrival. A packet
  // eaten mid-flight gets a second record (admission already logged it as
  // delivered/reordered).
  if (r.src->is_partitioned || r.dst->is_partitioned) {
    if (recorder_->enabled()) {
      record_packet(packet, obs::PacketVerdict::partitioned, loop_.now());
    }
    return;
  }
  r.dst->stats.data_packets_rx++;
  r.dst->stats.data_bytes_rx += packet.wire_size();
  if (r.dst->handler) r.dst->handler(std::move(packet));
}

common::Result<sim::TimeNs> Fabric::send_ctrl(HostId src, HostId dst,
                                              const std::string& service,
                                              common::Bytes payload) {
  auto src_it = ports_.find(src);
  if (src_it == ports_.end() || !ports_.contains(dst)) {
    MIGR_WARN() << "ctrl message to/from unattached host " << src << "->" << dst;
    return common::err(Errc::not_found, "ctrl endpoint not attached");
  }
  src_it->second.stats.ctrl_messages_tx++;
  src_it->second.stats.ctrl_bytes_tx += payload.size();
  LinkCounters& link = link_counters(src, dst);
  link.packets->inc();
  link.bytes->inc(payload.size());

  // Model TCP as a stream: the message occupies the port for its full
  // length, then arrives whole after propagation. Loss is absorbed by
  // "TCP" (we don't simulate retransmits on the ctrl plane), but a
  // partition kills delivery exactly like a failed node would. With
  // ctrl_loss_prob set, whole messages vanish instead — the management
  // network failing — and retransmission becomes the caller's problem
  // (the TransferMux chunk retry loop).
  const std::uint64_t wire_bytes = payload.size() + config_.header_bytes;
  const sim::TimeNs serialized_at = reserve_egress(src_it->second, wire_bytes);
  if (faults_.ctrl_loss_prob > 0 && rng_.chance(faults_.ctrl_loss_prob)) {
    src_it->second.stats.ctrl_messages_dropped++;
    return serialized_at;  // occupied the wire, never arrives
  }
  const sim::TimeNs deliver_at = serialized_at + config_.propagation + faults_.ctrl_delay;

  // Causal piggyback: capture the sender's TraceContext and a flow id now;
  // the delivery lambda emits the flow arrow (both endpoints, so a dropped
  // or partitioned message emits neither) and installs the context around
  // the handler so responder spans parent-link back to the requester.
  auto& tracer = obs::Tracer::global();
  obs::TraceContext send_ctx;
  std::uint64_t flow_id = 0;
  if (tracer.enabled()) {
    send_ctx = tracer.context();
    flow_id = tracer.new_id();
  }

  loop_.post_at(deliver_at, [this, src, dst, service, serialized_at, send_ctx, flow_id,
                             payload = std::move(payload)]() mutable {
    if (partitioned(src) || partitioned(dst)) return;
    auto it = services_.find({dst, service});
    if (it != services_.end() && it->second) {
      auto& tr = obs::Tracer::global();
      if (flow_id != 0 && tr.enabled()) {
        const std::string hosts =
            "\"src\":" + std::to_string(src) + ",\"dst\":" + std::to_string(dst);
        tr.flow_start(serialized_at, service, "net.ctrl", flow_id, hosts);
        tr.flow_finish(loop_.now(), service, "net.ctrl", flow_id, hosts);
        obs::CtxScope scope(tr, send_ctx);
        it->second(src, std::move(payload));
      } else {
        it->second(src, std::move(payload));
      }
    } else {
      MIGR_DEBUG() << "ctrl message for unknown service " << service << " on host " << dst;
    }
  });
  return serialized_at;
}

void Fabric::set_partitioned(HostId host, bool partitioned) {
  auto it = ports_.find(host);
  if (it != ports_.end()) {
    it->second.is_partitioned = partitioned;
  } else if (partitioned) {
    partitioned_orphans_.insert(host);
  } else {
    partitioned_orphans_.erase(host);
  }
}

const PortStats& Fabric::stats(HostId host) const {
  static const PortStats kEmpty{};
  auto it = ports_.find(host);
  return it == ports_.end() ? kEmpty : it->second.stats;
}

}  // namespace migr::net
