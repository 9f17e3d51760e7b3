// Multifd-style parallel transfer mux (QEMU's multifd idiom): one logical
// payload is split into page-granular chunks round-robined over N fabric
// ctrl streams (`<base>.<k>`), each stream paced independently, with a
// per-chunk ack/timeout/retry loop and a destination-side reassembler that
// delivers only on full receipt, in send order. Transfers pipeline: a
// payload goes on the wire when sent, not when its predecessor is acked.
// It is the only image-transfer path: MigrationController::transfer_to_dest,
// the post-copy page pump (on the migration's mux) and FtController's epoch
// sync all ride it. With one unpaced stream (the defaults) it is a plain
// chunked transfer.
//
// Determinism: sharding is a pure function of (payload size, chunk_bytes,
// streams) — chunk i rides stream i % N — and pacing advances per-stream
// virtual clocks by exact transmit times, so seeded runs are byte-identical
// run to run regardless of stream count.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "net/fabric.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace migr::migrlib {

struct XferOptions {
  std::uint32_t streams = 1;
  /// Per-stream bandwidth ceiling. This is the whole point of multifd: one
  /// stream's processing pipeline cannot saturate the link, so the mux
  /// paces each stream at `stream_gbps` and aggregate throughput scales
  /// with the stream count (up to line rate). 0 = no pacing (line rate).
  double stream_gbps = 0.0;
  std::uint64_t chunk_bytes = 256 * 1024;
  /// Ack deadline per chunk attempt, counted from the moment the chunk has
  /// left the source port (not from when it was queued behind its peers).
  sim::DurationNs chunk_timeout = sim::msec(5);
  int max_chunk_retries = 5;
  sim::DurationNs retry_backoff = sim::msec(1);
  /// Ceiling for the doubling retry backoff — a many-retry chunk on a lossy
  /// link must not back off past the transfer deadline.
  sim::DurationNs max_backoff = sim::msec(50);
  /// Critical-path interval sink (DESIGN.md §16): per-chunk wire/retry/
  /// pacing intervals are recorded here when the owner armed the recorder.
  /// Must outlive the mux; nullptr (or a disabled recorder) records nothing.
  obs::CpRecorder* cp = nullptr;
};

/// Per-stream wire accounting, in frame bytes (chunk payload + framing).
/// `attempted` includes re-sends; `lost()` is derived, so once the fabric
/// quiesces the balance attempted == delivered + lost holds exactly.
struct XferStreamStats {
  std::uint64_t chunks = 0;  // frames sent, including re-sends
  std::uint64_t bytes_attempted = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t retries = 0;

  std::uint64_t bytes_lost() const noexcept {
    return bytes_attempted - bytes_delivered;
  }
};

struct XferStats {
  std::vector<XferStreamStats> streams;
  std::uint64_t transfers = 0;  // payloads fully delivered

  std::uint64_t attempted() const noexcept {
    std::uint64_t v = 0;
    for (const auto& s : streams) v += s.bytes_attempted;
    return v;
  }
  std::uint64_t delivered() const noexcept {
    std::uint64_t v = 0;
    for (const auto& s : streams) v += s.bytes_delivered;
    return v;
  }
  std::uint64_t lost() const noexcept { return attempted() - delivered(); }
  std::uint64_t retries() const noexcept {
    std::uint64_t v = 0;
    for (const auto& s : streams) v += s.retries;
    return v;
  }
  std::uint64_t chunks() const noexcept {
    std::uint64_t v = 0;
    for (const auto& s : streams) v += s.chunks;
    return v;
  }
};

/// `[{"chunks":..,"attempted":..,"delivered":..,"lost":..,"retries":..},...]`
void write_streams(common::Json& j, const std::vector<XferStreamStats>& streams);

class TransferMux {
 public:
  using DeliverFn = std::function<void(common::Bytes&&)>;
  using FailFn = std::function<void(const common::Status&)>;

  /// Registers `<base>.<k>` data services on `dst` and `<base>.ack` on
  /// `src`. The services stay registered for the mux's lifetime — streams
  /// model long-lived connections.
  TransferMux(sim::EventLoop& loop, net::Fabric& fabric, std::string base,
              net::HostId src, net::HostId dst, XferOptions opts);
  ~TransferMux();

  TransferMux(const TransferMux&) = delete;
  TransferMux& operator=(const TransferMux&) = delete;

  /// (Re)point the delivery/failure callbacks. Callers hand the mux off
  /// between phases this way — e.g. the migration controller re-points
  /// delivery at the post-copy pump once the final transfer lands.
  void open(DeliverFn on_deliver, FailFn on_fail);

  /// Put a payload on the wire. Several transfers may be in flight; the
  /// receiver delivers each whole, in send order.
  void send(common::Bytes payload);

  /// Drop every in-flight transfer and all rx state. Stats survive (an
  /// aborted migration still reports what it attempted).
  void cancel();

  bool busy() const noexcept { return !tx_.empty(); }
  const XferStats& stats() const noexcept { return stats_; }
  const XferOptions& options() const noexcept { return opts_; }

  /// Causal scope installed around every chunk/ack send, so flow events and
  /// responder spans parent-link to the owning workflow's span.
  void set_trace_context(obs::TraceContext ctx) noexcept { ctx_ = ctx; }

  /// Framing bytes added per chunk (seq + index + count + stream + length).
  static constexpr std::uint64_t kFrameOverhead = 8 + 4 + 4 + 4 + 4;

  /// Total wire bytes a clean (no-retry) transfer of `payload_bytes` costs.
  static std::uint64_t wire_size(std::uint64_t payload_bytes,
                                 std::uint64_t chunk_bytes);

 private:
  struct Chunk {
    std::uint32_t stream = 0;
    std::size_t off = 0;
    std::size_t len = 0;
    int attempts = 0;
    bool acked = false;
    sim::TimeNs sent_at = 0;
    sim::EventHandle timer;  // pending paced send or ack timeout
  };

  struct Tx {
    std::uint64_t seq = 0;
    common::Bytes payload;
    std::vector<Chunk> chunks;
    std::uint32_t acked = 0;
  };

  struct Rx {
    std::uint32_t count = 0;
    std::vector<common::Bytes> frames;  // received frames, kept whole; empty until then
    std::vector<std::span<const std::uint8_t>> slices;  // payload in frames
  };

  Tx* find_tx(std::uint64_t seq);
  void schedule_send(Tx& tx, std::uint32_t index, sim::DurationNs delay);
  void do_send(std::uint32_t index, std::uint64_t seq);
  void on_chunk_timeout(std::uint32_t index, std::uint64_t seq);
  void on_data(std::uint32_t stream, common::Bytes&& frame);
  void on_ack(common::Bytes&& frame);
  void deliver_ready();

  sim::EventLoop& loop_;
  net::Fabric& fabric_;
  std::string base_;
  net::HostId src_;
  net::HostId dst_;
  XferOptions opts_;
  std::vector<std::string> data_services_;
  std::string ack_service_;
  obs::TraceContext ctx_;

  DeliverFn deliver_;
  FailFn fail_;

  // Sender side: transfers in flight, in send order.
  std::uint64_t next_seq_ = 0;
  std::deque<Tx> tx_;
  std::vector<sim::TimeNs> stream_free_at_;  // per-stream pacing clocks

  // Receiver side: partial transfers by sequence number, and the next one
  // to deliver.
  std::map<std::uint64_t, Rx> rx_;
  std::uint64_t rx_next_ = 0;

  XferStats stats_;
};

}  // namespace migr::migrlib
