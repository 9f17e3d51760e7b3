#include "migr/xfer.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace migr::migrlib {

using common::ByteReader;
using common::Bytes;
using common::ByteWriter;
using common::Errc;

void write_streams(common::Json& j, const std::vector<XferStreamStats>& streams) {
  j.arr();
  for (const XferStreamStats& s : streams) {
    j.obj().key("chunks").val(s.chunks).key("attempted").val(s.bytes_attempted);
    j.key("delivered").val(s.bytes_delivered).key("lost").val(s.bytes_lost());
    j.key("retries").val(s.retries).end();
  }
  j.end();
}

TransferMux::TransferMux(sim::EventLoop& loop, net::Fabric& fabric,
                         std::string base, net::HostId src, net::HostId dst,
                         XferOptions opts)
    : loop_(loop),
      fabric_(fabric),
      base_(std::move(base)),
      src_(src),
      dst_(dst),
      opts_(opts) {
  opts_.streams = std::max<std::uint32_t>(1, opts_.streams);
  opts_.chunk_bytes = std::max<std::uint64_t>(1, opts_.chunk_bytes);
  stats_.streams.resize(opts_.streams);
  stream_free_at_.assign(opts_.streams, 0);
  ack_service_ = base_ + ".ack";
  data_services_.reserve(opts_.streams);
  for (std::uint32_t k = 0; k < opts_.streams; ++k) {
    data_services_.push_back(base_ + "." + std::to_string(k));
    fabric_.register_service(dst_, data_services_.back(),
                             [this, k](net::HostId, Bytes&& p) {
                               on_data(k, std::move(p));
                             });
  }
  fabric_.register_service(src_, ack_service_, [this](net::HostId, Bytes&& p) {
    on_ack(std::move(p));
  });
}

TransferMux::~TransferMux() {
  cancel();
  for (const auto& svc : data_services_) fabric_.unregister_service(dst_, svc);
  fabric_.unregister_service(src_, ack_service_);
}

std::uint64_t TransferMux::wire_size(std::uint64_t payload_bytes,
                                     std::uint64_t chunk_bytes) {
  chunk_bytes = std::max<std::uint64_t>(1, chunk_bytes);
  const std::uint64_t nchunks =
      payload_bytes == 0 ? 1 : (payload_bytes + chunk_bytes - 1) / chunk_bytes;
  return payload_bytes + nchunks * kFrameOverhead;
}

void TransferMux::open(DeliverFn on_deliver, FailFn on_fail) {
  deliver_ = std::move(on_deliver);
  fail_ = std::move(on_fail);
}

void TransferMux::send(Bytes payload) {
  Tx& tx = tx_.emplace_back();
  tx.seq = next_seq_++;
  tx.payload = std::move(payload);
  const std::size_t total = tx.payload.size();
  const std::size_t nchunks =
      total == 0 ? 1
                 : (total + opts_.chunk_bytes - 1) / opts_.chunk_bytes;
  tx.chunks.resize(nchunks);
  for (std::size_t i = 0; i < nchunks; ++i) {
    Chunk& c = tx.chunks[i];
    c.stream = static_cast<std::uint32_t>(i % opts_.streams);
    c.off = i * opts_.chunk_bytes;
    c.len = std::min<std::size_t>(opts_.chunk_bytes, total - c.off);
  }
  for (std::uint32_t i = 0; i < nchunks; ++i) schedule_send(tx, i, 0);
}

TransferMux::Tx* TransferMux::find_tx(std::uint64_t seq) {
  for (Tx& tx : tx_) {
    if (tx.seq == seq) return &tx;
  }
  return nullptr;
}

void TransferMux::schedule_send(Tx& tx, std::uint32_t index, sim::DurationNs delay) {
  Chunk& c = tx.chunks[index];
  const std::uint64_t frame_bytes = c.len + kFrameOverhead;
  sim::TimeNs ready = loop_.now() + delay;
  if (opts_.stream_gbps > 0) {
    // Pace: each stream is a fixed-rate pipe. The chunk goes on the wire at
    // the stream's next free instant and occupies it for its transmit time.
    const sim::TimeNs start = std::max(ready, stream_free_at_[c.stream]);
    if (opts_.cp != nullptr && opts_.cp->enabled() && start > ready) {
      // Pacing hold: the chunk was ready but its stream was serialized
      // behind earlier chunks.
      opts_.cp->add(ready, start, obs::EdgeClass::scheduler_hold,
                    "stream " + std::to_string(c.stream));
    }
    stream_free_at_[c.stream] =
        start + sim::transmit_time(frame_bytes, opts_.stream_gbps);
    ready = start;
  }
  const std::uint64_t seq = tx.seq;
  if (ready <= loop_.now()) {
    do_send(index, seq);
    return;
  }
  c.timer = loop_.schedule_at(
      ready, [this, index, seq] { do_send(index, seq); });
}

void TransferMux::do_send(std::uint32_t index, std::uint64_t seq) {
  Tx* tx = find_tx(seq);
  if (tx == nullptr) return;
  Chunk& c = tx->chunks[index];
  if (c.acked) return;
  c.attempts++;

  ByteWriter w;
  w.u64(seq);
  w.u32(index);
  w.u32(static_cast<std::uint32_t>(tx->chunks.size()));
  w.u32(c.stream);
  w.bytes({tx->payload.data() + c.off, c.len});
  Bytes frame = std::move(w).take();

  auto& ss = stats_.streams[c.stream];
  ss.chunks++;
  ss.bytes_attempted += frame.size();
  c.sent_at = loop_.now();
  sim::TimeNs on_wire = c.sent_at;
  {
    obs::CtxScope scope(obs::Tracer::global(), ctx_);
    auto sent = fabric_.send_ctrl(src_, dst_, data_services_[c.stream], std::move(frame));
    if (sent.is_ok()) on_wire = std::max(on_wire, sent.value());
  }

  // The deadline runs from the moment the chunk has left the port: the
  // fabric serializes chunks back to back, so an unpaced transfer's tail
  // waits behind its own head and must not time out while still queued.
  c.timer = loop_.schedule_at(on_wire + opts_.chunk_timeout, [this, index, seq] {
    on_chunk_timeout(index, seq);
  });
}

void TransferMux::on_chunk_timeout(std::uint32_t index, std::uint64_t seq) {
  Tx* tx = find_tx(seq);
  if (tx == nullptr) return;
  Chunk& c = tx->chunks[index];
  if (c.acked) return;
  if (c.attempts > opts_.max_chunk_retries) {
    const common::Status st = common::err(
        Errc::timeout, "xfer chunk " + std::to_string(index) + " exhausted " +
                           std::to_string(opts_.max_chunk_retries) +
                           " retries on stream " + std::to_string(c.stream));
    cancel();
    if (fail_) fail_(st);
    return;
  }
  stats_.streams[c.stream].retries++;
  obs::Registry::global().counter("migr.xfer.chunk_retries").inc();
  const sim::DurationNs backoff = std::min<sim::DurationNs>(
      opts_.retry_backoff << (c.attempts - 1), opts_.max_backoff);
  if (opts_.cp != nullptr && opts_.cp->enabled()) {
    // Lost attempt + backoff: dead time the loss caused, ending at the
    // moment the re-send becomes eligible.
    opts_.cp->add(c.sent_at, loop_.now() + backoff, obs::EdgeClass::chunk_retry,
                  "chunk " + std::to_string(index) + " try " +
                      std::to_string(c.attempts));
  }
  schedule_send(*tx, index, backoff);
}

void TransferMux::on_data(std::uint32_t stream, Bytes&& frame) {
  const std::uint64_t frame_bytes = frame.size();
  ByteReader r{frame};
  auto seq = r.u64();
  auto index = r.u32();
  auto nchunks = r.u32();
  auto wire_stream = r.u32();
  auto slice = r.view();
  if (!seq.is_ok() || !index.is_ok() || !nchunks.is_ok() ||
      !wire_stream.is_ok() || !slice.is_ok() || !r.done()) {
    return;  // malformed frame: drop, sender's timeout re-sends
  }
  // A frame for a live transfer must fit it: its chunk count, an index in
  // it, that chunk's stream and a full chunk (the last may be short), or it
  // is dropped unacked without touching receiver state. A new transfer's
  // chunk count is the sender's (src and dst halves live in one object; the
  // frames still cross the simulated fabric in between).
  auto it = rx_.end();
  std::uint32_t live_chunks = 0;
  if (*seq >= rx_next_) {
    it = rx_.find(*seq);
    if (it != rx_.end()) {
      live_chunks = static_cast<std::uint32_t>(it->second.frames.size());
    } else if (const Tx* tx = find_tx(*seq)) {
      live_chunks = static_cast<std::uint32_t>(tx->chunks.size());
    }
    const bool last = *index + 1 == live_chunks;
    if (live_chunks == 0 || *nchunks != live_chunks || *index >= live_chunks ||
        *wire_stream != stream || stream != *index % opts_.streams ||
        slice->size() > opts_.chunk_bytes || (!last && slice->size() != opts_.chunk_bytes)) {
      return;
    }
  }
  stats_.streams[stream].bytes_delivered += frame_bytes;

  // Ack every frame that fits — duplicates and frames for cancelled or
  // delivered transfers too, so the sender stops retrying them.
  ByteWriter w;
  w.u64(*seq);
  w.u32(*index);
  {
    obs::CtxScope scope(obs::Tracer::global(), ctx_);
    (void)fabric_.send_ctrl(dst_, src_, ack_service_, std::move(w).take());
  }

  if (*seq < rx_next_) return;  // already delivered, or cancelled
  if (it == rx_.end()) {
    it = rx_.emplace(*seq, Rx{}).first;
    it->second.frames.resize(live_chunks);
    it->second.slices.resize(live_chunks);
  }
  Rx& rx = it->second;
  if (!rx.frames[*index].empty()) return;  // a duplicate
  rx.slices[*index] = *slice;
  rx.frames[*index] = std::move(frame);  // keeps the slice's bytes alive
  if (++rx.count == rx.frames.size() && *seq == rx_next_) deliver_ready();
}

void TransferMux::deliver_ready() {
  // Deliver complete transfers in send order, each exactly once. A delivery
  // callback may send, cancel or re-open the mux, so re-check the state
  // after every call.
  for (auto it = rx_.find(rx_next_);
       it != rx_.end() && it->second.count == it->second.frames.size();
       it = rx_.find(rx_next_)) {
    std::size_t total = 0;
    for (const auto& s : it->second.slices) total += s.size();
    Bytes payload;
    payload.reserve(total);
    for (const auto& s : it->second.slices) {
      payload.insert(payload.end(), s.begin(), s.end());
    }
    rx_.erase(it);
    rx_next_++;
    if (deliver_) deliver_(std::move(payload));
  }
}

void TransferMux::on_ack(Bytes&& frame) {
  ByteReader r{frame};
  auto seq = r.u64();
  auto index = r.u32();
  if (!seq.is_ok() || !index.is_ok() || !r.done()) return;
  auto tx = std::find_if(tx_.begin(), tx_.end(),
                         [&](const Tx& t) { return t.seq == *seq; });
  if (tx == tx_.end() || *index >= tx->chunks.size()) return;
  Chunk& c = tx->chunks[*index];
  if (c.acked) return;
  c.acked = true;
  c.timer.cancel();
  obs::Registry::global()
      .histogram("migr.xfer.chunk_rtt_ns",
                 {{"stream", std::to_string(c.stream)}})
      .observe(static_cast<double>(loop_.now() - c.sent_at));
  if (opts_.cp != nullptr && opts_.cp->enabled()) {
    // Delivered attempt: wire + ack round-trip for this chunk.
    opts_.cp->add(c.sent_at, loop_.now(), obs::EdgeClass::chunk_wire,
                  "chunk " + std::to_string(*index));
  }
  if (++tx->acked < tx->chunks.size()) return;
  stats_.transfers++;
  tx_.erase(tx);
}

void TransferMux::cancel() {
  for (Tx& tx : tx_) {
    for (Chunk& c : tx.chunks) c.timer.cancel();
  }
  tx_.clear();
  // Frames of the dropped transfers may still arrive: they fall below
  // rx_next_ and are only acked.
  rx_.clear();
  rx_next_ = next_seq_;
}

}  // namespace migr::migrlib
