#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace migr::obs {

const char* to_string(PacketVerdict v) noexcept {
  switch (v) {
    case PacketVerdict::delivered: return "delivered";
    case PacketVerdict::dropped: return "dropped";
    case PacketVerdict::reordered: return "reordered";
    case PacketVerdict::partitioned: return "partitioned";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t per_host_capacity)
    : capacity_(per_host_capacity == 0 ? 1 : per_host_capacity) {}

void FlightRecorder::set_capacity(std::size_t per_host_capacity) {
  capacity_ = per_host_capacity == 0 ? 1 : per_host_capacity;
  rings_.clear();
  total_ = 0;
}

FlightRecorder::Ring& FlightRecorder::ring_for(std::uint32_t src_host) {
  auto it = rings_.find(src_host);
  if (it == rings_.end()) {
    it = rings_.emplace(src_host, Ring{}).first;
    it->second.slots.resize(capacity_);  // the one allocation per host
  }
  return it->second;
}

void FlightRecorder::record(const PacketRecord& r) {
  if (!enabled()) return;
  Ring& ring = ring_for(r.src);
  if (ring.size < ring.slots.size()) {
    ring.slots[ring.size++] = r;
  } else {
    ring.slots[ring.head] = r;
    ring.head = (ring.head + 1) % ring.slots.size();
  }
  ring.total++;
  total_++;
}

std::vector<PacketRecord> FlightRecorder::records(std::uint32_t src_host) const {
  std::vector<PacketRecord> out;
  auto it = rings_.find(src_host);
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  out.reserve(ring.size);
  for (std::size_t i = 0; i < ring.size; ++i) {
    out.push_back(ring.slots[(ring.head + i) % ring.slots.size()]);
  }
  return out;
}

std::vector<PacketRecord> FlightRecorder::window(std::uint32_t src_host,
                                                 std::size_t last_n) const {
  std::vector<PacketRecord> all = records(src_host);
  if (all.size() > last_n) all.erase(all.begin(), all.end() - static_cast<long>(last_n));
  return all;
}

std::uint64_t FlightRecorder::overwritten() const noexcept {
  std::uint64_t held = 0;
  for (const auto& [host, ring] : rings_) {
    (void)host;
    held += ring.size;
  }
  return total_ - held;
}

void FlightRecorder::clear() {
  rings_.clear();
  total_ = 0;
  dumps_ = 0;
  last_dump_json_.clear();
  last_dump_path_.clear();
}

void FlightRecorder::append_records_json(common::Json& j, std::int64_t from_ns) const {
  // A stable merge by (time, host): each host's records keep their ring
  // order, whatever order the (unordered) rings are visited in.
  std::vector<PacketRecord> merged;
  for (const auto& [host, ring] : rings_) {
    (void)ring;
    for (const PacketRecord& r : records(host)) {
      if (r.ts_ns >= from_ns) merged.push_back(r);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.src < b.src;
                   });

  j.key("packets").arr();
  for (const PacketRecord& r : merged) {
    j.obj().key("ts_ns").val(r.ts_ns).key("src").val(r.src).key("dst").val(r.dst);
    j.key("op").val(static_cast<unsigned>(r.opcode)).key("qpn").val(r.qpn);
    j.key("psn").val(r.psn).key("bytes").val(r.bytes).key("verdict").val(to_string(r.verdict));
    j.end();
  }
  j.end();
}

std::string FlightRecorder::trigger_dump(std::int64_t now_ns, std::string_view reason,
                                         std::string_view detail) {
  if (!enabled()) return {};
  dumps_++;
  Registry::global().counter("obs.recorder.dumps").inc();

  const std::int64_t from_ns = now_ns - window_ns_;
  std::string out;
  out.reserve(4096);
  common::Json j(out);
  j.obj().key("kind").val("flight_recorder_dump").key("reason").val(reason);
  j.key("ts_ns").val(now_ns).key("window_ns").val(window_ns_);
  j.key("detail").obj().raw(detail).end();  // caller-provided object members
  append_records_json(j, from_ns);

  // The surrounding trace window: spans/instants whose timestamp falls in
  // the same look-back window, so the dump reads as "what the workflow was
  // doing while these packets were on the wire".
  j.key("trace").arr();
  for (const TraceEvent& ev : Tracer::global().events()) {
    if (ev.ts_ns < from_ns) continue;
    const char ph[] = {static_cast<char>(ev.ph), '\0'};
    j.obj().key("ph").val(ph).key("ts_ns").val(ev.ts_ns);
    if (ev.ph == TraceEvent::Phase::complete) j.key("dur_ns").val(ev.dur_ns);
    j.key("name").val(ev.name).key("cat").val(ev.cat);
    j.key("args").obj().raw(ev.args).end().end();
  }
  j.end().end();

  last_dump_json_ = out;
  last_dump_path_.clear();
  if (!dump_dir_.empty()) {
    std::string name = "flight_" + std::to_string(dumps_) + "_";
    for (char c : reason) {
      name += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    }
    const std::string path = dump_dir_ + "/" + name + ".json";
    if (common::write_file(path, out).is_ok()) last_dump_path_ = path;
  }
  return out;
}

std::string FlightRecorder::export_json() const {
  std::string out;
  out.reserve(4096);
  common::Json j(out);
  j.obj().key("kind").val("flight_recorder_capture").key("total_recorded").val(total_);
  j.key("overwritten").val(overwritten()).key("dumps").val(dumps_);
  append_records_json(j, /*from_ns=*/std::numeric_limits<std::int64_t>::min());
  j.end();
  return out;
}

common::Status FlightRecorder::write_json(const std::string& path) const {
  return common::write_file(path, export_json());
}

}  // namespace migr::obs
