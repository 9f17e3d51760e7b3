// Wire flight recorder: bounded per-host ring buffers of compact packet
// records, fed by the fabric on both the burst fast path and the per-packet
// fault fallback. Think of it as the simulator's always-on (when armed)
// port-mirror: when something goes wrong — a migration aborts, a stuck-QP
// audit fires, a responder NAK storm erupts — the last window of wire
// activity around the anomaly is dumped as JSON together with the
// surrounding trace events, so post-mortems see the packets the application
// never could.
//
// Cost discipline mirrors the tracer: off by default, one predictable
// branch per packet when disabled. When enabled, recording is a ring-slot
// overwrite — no allocation after the rings are sized (the disabled-mode
// zero-allocation property is pinned by recorder_test with a counting
// operator new).
//
// Layering: obs sits below net/rnic, so records carry plain integers. The
// fabric peeks opcode/QPN/PSN out of the serialized wire header at fixed
// offsets (see fabric.cpp); 0xff opcode marks a packet whose header was not
// in the RNIC wire format (raw test frames).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"

namespace migr::obs {

enum class PacketVerdict : std::uint8_t {
  delivered = 0,    // scheduled for delivery (burst or per-packet path)
  dropped = 1,      // lost to injected data-plane loss
  reordered = 2,    // held back past later packets, then delivered
  partitioned = 3,  // eaten by a host partition
};

const char* to_string(PacketVerdict v) noexcept;

/// One packet observation. 40 bytes, trivially copyable: a ring slot
/// overwrite, never an allocation.
struct PacketRecord {
  std::int64_t ts_ns = 0;   // sim time of the send decision (or partition flip)
  std::uint64_t psn = 0;
  std::uint32_t src = 0;    // source host id
  std::uint32_t dst = 0;    // destination host id
  std::uint32_t qpn = 0;    // destination QPN from the wire header
  std::uint32_t bytes = 0;  // wire_size() of the frame
  std::uint8_t opcode = 0xff;  // rnic::PktOp value; 0xff = not RNIC-framed
  PacketVerdict verdict = PacketVerdict::delivered;
};

class FlightRecorder {
 public:
  /// The process-wide recorder the fabric feeds by default.
  static FlightRecorder& global();

  explicit FlightRecorder(std::size_t per_host_capacity = kDefaultCapacity);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Drops all records and resizes every future ring. Existing rings are
  /// discarded so hosts re-materialize at the new capacity on first record.
  void set_capacity(std::size_t per_host_capacity);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Record one packet observation into the source host's ring. Callers on
  /// hot paths should branch on enabled() first; this checks again so a raw
  /// call on a disabled recorder stays a no-op.
  void record(const PacketRecord& r);

  /// How far back (sim ns) from the anomaly a dump reaches, for both packet
  /// records and surrounding trace events.
  void set_dump_window(std::int64_t window_ns) noexcept { window_ns_ = window_ns; }
  std::int64_t dump_window() const noexcept { return window_ns_; }

  /// Directory anomaly dumps are written to; empty (default) keeps dumps
  /// in memory only (last_dump_json). File names are deterministic:
  /// flight_<seq>_<reason>.json.
  void set_dump_dir(std::string dir) { dump_dir_ = std::move(dir); }

  /// Dump-on-anomaly: capture every host's records within the dump window
  /// ending at `now_ns`, merge-sort them by time, append the surrounding
  /// window of the global tracer's events, and wrap it all in one JSON
  /// document headed by {reason, detail}. `detail` is a JSON object
  /// *fragment* (e.g. "\"guest\":7,\"phase\":\"final_transfer\"").
  /// No-op (returns empty) while disabled. Returns the JSON, also kept in
  /// last_dump_json() and written to the dump dir when one is set.
  std::string trigger_dump(std::int64_t now_ns, std::string_view reason,
                           std::string_view detail = {});

  /// Full-capture export (no anomaly header): everything currently held,
  /// merged across hosts, oldest first. Works while disabled too (dumps
  /// whatever was recorded before disabling).
  std::string export_json() const;
  common::Status write_json(const std::string& path) const;

  std::uint64_t dumps_triggered() const noexcept { return dumps_; }
  const std::string& last_dump_json() const noexcept { return last_dump_json_; }
  const std::string& last_dump_path() const noexcept { return last_dump_path_; }

  /// Records currently held for `src_host`, oldest first.
  std::vector<PacketRecord> records(std::uint32_t src_host) const;
  /// The newest `last_n` records for `src_host`, oldest first.
  std::vector<PacketRecord> window(std::uint32_t src_host, std::size_t last_n) const;

  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Records that fell off the back of a full ring.
  std::uint64_t overwritten() const noexcept;

  void clear();

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  /// Fixed-size overwrite ring; slots are preallocated at first touch of a
  /// host and never reallocated afterwards.
  struct Ring {
    std::vector<PacketRecord> slots;
    std::size_t head = 0;   // oldest element once wrapped
    std::size_t size = 0;
    std::uint64_t total = 0;
  };

  Ring& ring_for(std::uint32_t src_host);
  void append_records_json(common::Json& j, std::int64_t from_ns) const;

  bool enabled_ = false;
  std::size_t capacity_;
  std::int64_t window_ns_ = 2'000'000;  // 2 ms of wire history by default
  std::unordered_map<std::uint32_t, Ring> rings_;
  std::uint64_t total_ = 0;
  std::uint64_t dumps_ = 0;
  std::string dump_dir_;
  std::string last_dump_json_;
  std::string last_dump_path_;
};

}  // namespace migr::obs
