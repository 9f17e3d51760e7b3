#include "ft/ft.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/sli.hpp"
#include "obs/trace.hpp"

namespace migr::ft {

using common::Bytes;
using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Status;
using migrlib::GuestContext;
using migrlib::Plugin;

namespace {
void trace_span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                std::string args = {}) {
  auto& t = obs::Tracer::global();
  if (t.enabled()) t.complete(start, dur, name, "ft", std::move(args));
}

void trace_instant(sim::TimeNs at, std::string_view name, std::string args = {}) {
  auto& t = obs::Tracer::global();
  if (t.enabled()) t.instant(at, name, "ft", std::move(args));
}

// Failover-blackout slices ride the same track as migration blackout slices
// so one trace viewer lane shows both anatomy kinds.
void trace_blackout_span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                         std::string args = {}) {
  auto& t = obs::Tracer::global();
  if (t.enabled()) t.complete(start, dur, name, "migr.blackout", std::move(args));
}
}  // namespace

std::string FtReport::json() const {
  char buf[384];
  std::string out = "{\"kind\":\"ft_report\",\"version\":1";
  std::snprintf(buf, sizeof buf,
                ",\"guest\":%u,\"primary_host\":%u,\"backup_host\":%u"
                ",\"ok\":%s,\"error\":\"%s\""
                ",\"protect_start_ns\":%" PRId64 ",\"protected_at_ns\":%" PRId64
                ",\"end_ns\":%" PRId64,
                guest, primary_host, backup_host, ok ? "true" : "false", error.c_str(),
                protect_start, protected_at, end);
  out += buf;

  std::snprintf(buf, sizeof buf,
                ",\"epochs\":{\"captured\":%" PRIu64 ",\"committed\":%" PRIu64
                ",\"full_sync_bytes\":%" PRIu64 ",\"epoch_bytes_total\":%" PRIu64
                ",\"xfer_bytes_attempted\":%" PRIu64 ",\"xfer_bytes_delivered\":%" PRIu64
                ",\"transfer_retries\":%" PRIu64 ",\"records\":[",
                epochs_captured, epochs_committed, full_sync_bytes, epoch_bytes_total,
                xfer_bytes_attempted, xfer_bytes_delivered, transfer_retries);
  out += buf;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const EpochRecord& r = epochs[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"epoch\":%" PRIu64 ",\"captured_at_ns\":%" PRId64
                  ",\"committed_at_ns\":%" PRId64 ",\"commit_latency_ns\":%" PRId64
                  ",\"freeze_ns\":%" PRId64 ",\"mem_bytes\":%" PRIu64
                  ",\"rdma_bytes\":%" PRIu64 ",\"wire_bytes\":%" PRIu64
                  ",\"released_msgs\":%" PRIu64 ",\"retries\":%d}",
                  i ? "," : "", r.epoch, r.captured_at, r.committed_at, r.commit_latency(),
                  r.freeze_ns, r.mem_bytes, r.rdma_bytes, r.wire_bytes, r.released_msgs,
                  r.retries);
    out += buf;
  }
  out += "]";
  // Stream-level rollups of the epoch-sync mux.
  std::snprintf(buf, sizeof buf,
                ",\"streams\":{\"count\":%u,\"chunks\":%" PRIu64
                ",\"bytes_lost\":%" PRIu64 ",\"per_stream\":[",
                xfer_streams, xfer_chunks, xfer_bytes_lost);
  out += buf;
  for (std::size_t i = 0; i < xfer_stream_stats.size(); ++i) {
    const migrlib::XferStreamStats& s = xfer_stream_stats[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"chunks\":%" PRIu64 ",\"attempted\":%" PRIu64
                  ",\"delivered\":%" PRIu64 ",\"lost\":%" PRIu64 ",\"retries\":%" PRIu64 "}",
                  i ? "," : "", s.chunks, s.bytes_attempted, s.bytes_delivered,
                  s.bytes_lost(), s.retries);
    out += buf;
  }
  out += "]}}";

  std::snprintf(buf, sizeof buf,
                ",\"output_commit\":{\"buffered\":%" PRIu64 ",\"released\":%" PRIu64
                ",\"dropped\":%" PRIu64 ",\"release_delay_p50_ns\":%" PRId64
                ",\"release_delay_p99_ns\":%" PRId64 ",\"release_delay_max_ns\":%" PRId64 "}",
                msgs_buffered, msgs_released, msgs_dropped, release_delay_p50,
                release_delay_p99, release_delay_max);
  out += buf;

  out += ",\"failover\":{\"occurred\":";
  out += failed_over ? "true" : "false";
  out += ",\"reason\":\"" + failover_reason + "\"";
  std::snprintf(buf, sizeof buf,
                ",\"killed_at_ns\":%" PRId64 ",\"detected_at_ns\":%" PRId64
                ",\"resume_at_ns\":%" PRId64 ",\"blackout_ns\":%" PRId64
                ",\"promoted_epoch\":%" PRIu64,
                killed_at, detected_at, resume_at,
                failed_over ? failover_blackout() : 0, promoted_epoch);
  out += buf;
  // Waterfall block with the same shape as MigrationReport::waterfall_json,
  // so the validator's tiling-cursor check is reusable verbatim.
  std::snprintf(buf, sizeof buf,
                ",\"waterfall\":{\"freeze_at_ns\":%" PRId64 ",\"resume_at_ns\":%" PRId64
                ",\"blackout_ns\":%" PRId64 ",\"slices\":[",
                killed_at, resume_at, failed_over ? failover_blackout() : 0);
  out += buf;
  for (std::size_t i = 0; i < waterfall.size(); ++i) {
    const migrlib::PhaseSlice& s = waterfall[i];
    if (i != 0) out += ',';
    out += "{\"name\":\"" + s.name + "\",\"start_ns\":" + std::to_string(s.start) +
           ",\"dur_ns\":" + std::to_string(s.dur);
    if (!s.detail.empty()) {
      out += ',';
      out += s.detail;
    }
    out += '}';
  }
  out += "]}";
  if (critical_path.valid) {
    out += ",\"critical_path\":" + critical_path.json();
  }
  out += "}}";
  return out;
}

FtController::FtController(sim::EventLoop& loop, net::Fabric& fabric,
                           migrlib::GuestDirectory& directory, FtOptions options)
    : loop_(loop), fabric_(fabric), directory_(directory), options_(options),
      plugin_(options.migr_costs), psn_cursor_(options.psn_seed) {}

FtController::~FtController() {
  stop_timers();
  if (services_registered_) {
    fabric_.unregister_service(src_rt_->host(), ack_service_);
    fabric_.unregister_service(dest_rt_->host(), hb_service_);
    services_registered_ = false;
  }
}

void FtController::stop_timers() {
  epoch_timer_.cancel();
  hb_timer_.cancel();
  watchdog_timer_.cancel();
  ack_timeout_.cancel();
}

Status FtController::protect(GuestId id, net::HostId backup_host,
                             proc::SimProcess& backup_proc, migrlib::MigratableApp* app,
                             apps::MsgNode* node, ReadyCb ready, DoneCb done) {
  guest_id_ = id;
  app_ = app;
  node_ = node;
  ready_ = std::move(ready);
  done_ = std::move(done);
  dest_proc_ = &backup_proc;

  src_rt_ = directory_.runtime_of(id);
  dest_rt_ = directory_.runtime_at(backup_host);
  if (src_rt_ == nullptr || dest_rt_ == nullptr) {
    return common::err(Errc::not_found, "unknown primary or backup host");
  }
  if (src_rt_ == dest_rt_) {
    return common::err(Errc::invalid_argument, "primary and backup are the same host");
  }
  guest_ = src_rt_->find_guest(id);
  if (guest_ == nullptr) return common::err(Errc::not_found, "no such guest");
  if (node_ == nullptr) return common::err(Errc::invalid_argument, "ft needs the guest's MsgNode");
  src_proc_ = &guest_->process();
  if (guest_->has_raw_peer()) {
    return common::err(Errc::failed_precondition,
                       "guest has non-MigrRDMA partners; replication unsupported");
  }

  ckpt_ = std::make_unique<criu::Checkpointer>(*src_proc_, options_.criu_costs);
  restorer_ = std::make_unique<criu::Restorer>(*dest_proc_, options_.criu_costs);
  if (options_.epoch_byte_budget > 0) {
    criu::DirtyRateConfig cfg = options_.dirty_rate;
    cfg.seed += guest_id_;
    estimator_ = std::make_unique<criu::DirtyRateEstimator>(*src_proc_, cfg);
  }

  ack_service_ = "ft.ack." + std::to_string(id);
  hb_service_ = "ft.hb." + std::to_string(id);
  fabric_.register_service(src_rt_->host(), ack_service_, [this](net::HostId, Bytes&& p) {
    ByteReader r{p};
    auto e = r.u64();
    if (e.is_ok()) on_ack(e.value());
  });
  fabric_.register_service(dest_rt_->host(), hb_service_,
                           [this](net::HostId, Bytes&&) { last_hb_ = loop_.now(); });
  services_registered_ = true;

  // A fresh instance number in the service base: a re-protected guest gets
  // fresh `ft.xfer.<id>.<instance>.<k>` names, so a lingering old
  // controller's teardown can never unregister the live streams.
  migrlib::XferOptions xo;
  xo.streams = options_.xfer_streams;
  xo.stream_gbps = options_.xfer_stream_gbps;
  xo.chunk_bytes = options_.chunk_bytes;
  xo.max_backoff = std::min(xo.max_backoff, options_.max_transfer_backoff);
  xo.cp = &cp_;
  mux_ = std::make_unique<migrlib::TransferMux>(
      loop_, fabric_,
      "ft.xfer." + std::to_string(id) + "." + std::to_string(fabric_.next_service_instance()),
      src_rt_->host(), dest_rt_->host(), xo);
  mux_->open([this](Bytes&& p) { on_mux_epoch(std::move(p)); },
             [this](const Status& st) { fail(st); });

  report_ = FtReport{};
  report_.guest = id;
  report_.primary_host = src_rt_->host();
  report_.backup_host = backup_host;
  report_.protect_start = loop_.now();

  cp_.clear();
  cp_.set_enabled(options_.critical_path);
  auto& tr = obs::Tracer::global();
  if (tr.enabled()) {
    // One causal scope per protection: epoch sync flows, backup-side apply
    // spans, and failover spans all parent back to this root.
    trace_id_ = tr.new_id();
    root_span_ = tr.new_id();
    mux_->set_trace_context({trace_id_, root_span_});
  }

  // Output commit starts with protection, not with the sync's completion:
  // everything the guest emits from here on post-dates the epoch-0 state
  // and belongs to epoch 1.
  node_->arm_output_commit(1);
  next_epoch_ = 1;
  obs::SliHub::global().on_ft_protected(guest_id_, report_.protect_start);
  obs::Registry::global().counter("ft.protections_started").inc();
  if (tr.enabled()) {
    // Carries the root span id so every parent link in this protection's
    // causal graph resolves to a recorded event.
    tr.instant(report_.protect_start, "ft_protect", "ft",
               "\"guest\":" + std::to_string(guest_id_) +
                   ",\"backup_host\":" + std::to_string(backup_host),
               root_span_, 0);
  }
  loop_.schedule_in(0, [this] { phase_full_sync(); });
  return Status::ok();
}

void FtController::fail(const Status& st) {
  if (finished_) return;
  finished_ = true;
  MIGR_ERROR() << "ft protection of guest " << guest_id_ << " failed: " << st.to_string();
  stop_timers();
  mux_->cancel();  // chunk timers must not outlive protection
  protected_ = false;
  // Once failover started, partners may have switched QPs and be holding
  // their sends for a resume that will never come: release them.
  if (failed_over_) (void)migrlib::resume_partners(directory_, partners_, guest_id_);
  // Never strand buffered egress: a protection failure falls back to
  // unprotected operation, not to withholding the service's output.
  if (node_ != nullptr && node_->output_commit_armed()) node_->disarm_output_commit();
  obs::SliHub::global().on_ft_released(guest_id_, loop_.now());
  obs::Registry::global().counter("ft.protections_failed").inc();
  report_.ok = false;
  report_.error = st.to_string();
  finish_report();
  if (done_) done_(report_);
}

void FtController::finish_report() {
  report_.end = loop_.now();
  if (node_ != nullptr) {
    report_.msgs_released = node_->gate_released();
    report_.msgs_dropped = node_->gate_dropped();
    report_.msgs_buffered =
        report_.msgs_released + report_.msgs_dropped + node_->gated_pending();
    const obs::Histogram& h = node_->release_delay();
    report_.release_delay_p50 = h.percentile(50);
    report_.release_delay_p99 = h.percentile(99);
    report_.release_delay_max = h.max();
  }
  report_.epoch_bytes_total = 0;
  for (const EpochRecord& r : report_.epochs) {
    if (r.epoch >= 1) report_.epoch_bytes_total += r.wire_bytes;
  }
  const migrlib::XferStats& xs = mux_->stats();
  report_.xfer_streams = mux_->options().streams;
  report_.xfer_bytes_attempted = xs.attempted();
  report_.xfer_bytes_delivered = xs.delivered();
  report_.xfer_bytes_lost = xs.lost();
  report_.xfer_chunks = xs.chunks();
  report_.xfer_stream_stats = xs.streams;
}

void FtController::unprotect() {
  if (finished_) return;
  finished_ = true;
  stop_timers();
  mux_->cancel();
  protected_ = false;
  if (node_ != nullptr && node_->output_commit_armed()) node_->disarm_output_commit();
  obs::SliHub::global().on_ft_released(guest_id_, loop_.now());
  trace_instant(loop_.now(), "ft_unprotect", "\"guest\":" + std::to_string(guest_id_));
  report_.ok = true;
  finish_report();
  if (done_) done_(report_);
}

void FtController::kill_primary() {
  fabric_.set_partitioned(src_rt_->host(), true);
  src_proc_->kill();
  mark_primary_killed();
}

void FtController::mark_primary_killed() {
  if (report_.killed_at == 0) report_.killed_at = loop_.now();
  trace_instant(report_.killed_at, "ft_primary_killed",
                "\"guest\":" + std::to_string(guest_id_));
}

GuestContext* FtController::partner_guest(GuestId id) const {
  migrlib::MigrRdmaRuntime* rt = directory_.runtime_of(id);
  return rt == nullptr ? nullptr : rt->find_guest(id);
}

void FtController::push_waterfall(std::string name, sim::DurationNs dur, std::string detail) {
  trace_blackout_span(wf_cursor_, dur, name, detail);
  report_.waterfall.push_back(
      migrlib::PhaseSlice{std::move(name), wf_cursor_, dur, std::move(detail)});
  wf_cursor_ += dur;
}

// ---------------------------------------------------------------------------
// Primary side: full sync + epoch capture + transfer
// ---------------------------------------------------------------------------

namespace {

// An epoch's payload, written once into an exactly-sized buffer: the memory
// image, the page set and the RDMA image, each length-prefixed.
Bytes epoch_payload(const criu::MemoryImage& image, const criu::PageSet& pages,
                    const Bytes& rdma) {
  ByteWriter w(4 + image.serialized_size() + 4 + pages.serialized_size() + 4 + rdma.size());
  w.section(image);
  w.section(pages);
  w.bytes(rdma);
  return std::move(w).take();
}

}  // namespace

void FtController::phase_full_sync() {
  // Live full dump (the guest keeps running — the long initial copy must
  // not blackout the service the way per-epoch brief freezes may).
  auto dump = ckpt_->pre_dump();
  src_rt_->device().add_ctrl_pressure(dump.cost);
  predump_rdma_bytes_ = plugin_.pre_dump(*guest_);
  const sim::DurationNs cost = dump.cost + plugin_.take_cost();

  const std::uint64_t mem_bytes = dump.image.serialized_size() + dump.pages.serialized_size();
  inflight_payload_ = epoch_payload(dump.image, dump.pages, predump_rdma_bytes_);
  inflight_epoch_ = 0;
  inflight_ = true;
  xfer_attempt_ = 0;
  report_.full_sync_bytes = inflight_payload_.size();

  EpochRecord rec;
  rec.epoch = 0;
  rec.captured_at = loop_.now();
  rec.freeze_ns = 0;  // live capture
  rec.mem_bytes = mem_bytes;
  rec.rdma_bytes = predump_rdma_bytes_.size();
  report_.epochs.push_back(rec);
  report_.epochs_captured = 1;

  if (estimator_) estimator_->begin_interval(loop_.now());
  trace_span(loop_.now(), cost, "ft_full_sync",
             "\"bytes\":" + std::to_string(report_.full_sync_bytes));
  loop_.schedule_in(cost, [this] {
    if (finished_ || failed_over_) return;
    send_epoch(0, /*retry=*/false);
  });
}

sim::DurationNs FtController::next_epoch_interval() {
  if (options_.epoch_byte_budget == 0 || !estimator_ || !estimator_->primed()) {
    return options_.epoch_interval;
  }
  const double bps = estimator_->bytes_per_sec();
  if (bps <= 0) return options_.max_epoch_interval;
  const double sec = static_cast<double>(options_.epoch_byte_budget) / bps;
  const auto iv = static_cast<sim::DurationNs>(sec * sim::kSecond);
  return std::clamp(iv, options_.min_epoch_interval, options_.max_epoch_interval);
}

void FtController::capture_epoch() {
  if (!protected_ || failed_over_ || finished_) return;
  const sim::TimeNs t0 = loop_.now();
  if (estimator_ && estimator_->open()) (void)estimator_->end_interval(t0);

  // Brief freeze: the epoch-scoped dump captures a consistent point.
  src_proc_->freeze();
  auto ed = ckpt_->epoch_dump();
  if (!ed.is_ok()) {
    src_proc_->thaw();
    return fail(ed.status());
  }
  // Cumulative RDMA delta vs the protect-time pre-dump: the backup only
  // ever needs the *latest* delta at promotion, so each epoch carries the
  // full difference instead of a chain of per-epoch diffs.
  Bytes rdma_delta = plugin_.final_dump(*guest_);
  const sim::DurationNs rdma_cost = plugin_.take_cost();
  src_rt_->device().add_ctrl_pressure(ed->cost);

  const std::uint64_t epoch = next_epoch_++;
  const std::uint64_t mem_bytes = ed->image.serialized_size() + ed->pages.serialized_size();
  inflight_payload_ = epoch_payload(ed->image, ed->pages, rdma_delta);
  inflight_epoch_ = epoch;
  inflight_ = true;
  xfer_attempt_ = 0;

  EpochRecord rec;
  rec.epoch = epoch;
  rec.captured_at = t0;
  rec.freeze_ns = ed->cost + rdma_cost;
  rec.mem_bytes = mem_bytes;
  rec.rdma_bytes = rdma_delta.size();
  report_.epochs.push_back(rec);
  report_.epochs_captured++;

  // Everything the guest emits after this capture point belongs to the
  // *next* epoch — it is not part of the state this checkpoint ships.
  node_->set_output_epoch(epoch + 1);

  trace_span(t0, rec.freeze_ns, "ft_epoch_capture",
             "\"epoch\":" + std::to_string(epoch) +
                 ",\"pages\":" + std::to_string(ed->pages.pages.size()));
  loop_.schedule_in(rec.freeze_ns, [this, epoch] {
    if (finished_ || failed_over_) return;
    src_proc_->thaw();
    if (estimator_) estimator_->begin_interval(loop_.now());
    send_epoch(epoch, /*retry=*/false);
  });
}

void FtController::send_epoch(std::uint64_t epoch, bool retry) {
  // Whole epoch over the mux: the mux owns chunking (the mc-rdma idiom:
  // bounded chunks, short tail), per-stream pacing and chunk-level
  // ack/retry; FT keeps only the epoch-level ACK (which drives output
  // commit) and its coarse deadline. A deadline retry abandons the stale
  // in-flight transfer and re-sends. The backup reassembles and applies the
  // epoch atomically on full receipt.
  ByteWriter h;
  h.u64(epoch);
  h.bytes(inflight_payload_);
  Bytes frame = std::move(h).take();
  const std::uint64_t wire =
      migrlib::TransferMux::wire_size(frame.size(), mux_->options().chunk_bytes);
  if (retry) mux_->cancel();
  mux_->send(std::move(frame));
  if (!retry) {
    for (auto it = report_.epochs.rbegin(); it != report_.epochs.rend(); ++it) {
      if (it->epoch == epoch) {
        it->wire_bytes = wire;
        break;
      }
    }
  }
  ack_timeout_.cancel();
  ack_timeout_ =
      loop_.schedule_in(options_.transfer_timeout, [this, epoch] { on_ack_timeout(epoch); });
}

void FtController::on_ack_timeout(std::uint64_t epoch) {
  if (!inflight_ || inflight_epoch_ != epoch || failed_over_ || finished_) return;
  if (xfer_attempt_ >= options_.max_transfer_retries) {
    return fail(common::err(Errc::timeout, "epoch " + std::to_string(epoch) +
                                               " transfer to backup timed out after " +
                                               std::to_string(xfer_attempt_ + 1) +
                                               " attempts"));
  }
  xfer_attempt_++;
  report_.transfer_retries++;
  for (auto it = report_.epochs.rbegin(); it != report_.epochs.rend(); ++it) {
    if (it->epoch == epoch) {
      it->retries++;
      break;
    }
  }
  obs::Registry::global().counter("ft.transfer_retries").inc();
  const sim::DurationNs backoff = std::min<sim::DurationNs>(
      options_.transfer_retry_backoff << (xfer_attempt_ - 1), options_.max_transfer_backoff);
  MIGR_WARN() << "ft epoch " << epoch << " unacked; retry " << xfer_attempt_ << "/"
              << options_.max_transfer_retries << " after " << backoff << " ns";
  loop_.schedule_in(backoff, [this, epoch] {
    if (inflight_ && inflight_epoch_ == epoch && !failed_over_ && !finished_) {
      send_epoch(epoch, /*retry=*/true);
    }
  });
}

void FtController::on_ack(std::uint64_t epoch) {
  if (finished_ || failed_over_) return;
  if (!inflight_ || epoch != inflight_epoch_) return;  // stale duplicate
  ack_timeout_.cancel();
  inflight_ = false;
  inflight_payload_.clear();
  committed_epoch_ = epoch;
  any_committed_ = true;
  const sim::TimeNs now = loop_.now();

  EpochRecord* rec = nullptr;
  for (auto it = report_.epochs.rbegin(); it != report_.epochs.rend(); ++it) {
    if (it->epoch == epoch) {
      rec = &*it;
      break;
    }
  }
  if (rec != nullptr) rec->committed_at = now;
  report_.epochs_committed++;

  // Output commit: the backup now holds every state that produced messages
  // tagged <= epoch — they are safe to show the world.
  const std::uint64_t released_before = node_->gate_released();
  node_->release_through(epoch);
  if (rec != nullptr) rec->released_msgs = node_->gate_released() - released_before;

  auto& reg = obs::Registry::global();
  reg.counter("ft.epochs_committed").inc();
  if (rec != nullptr) {
    reg.histogram("ft.epoch_commit_ns").observe(rec->commit_latency());
    reg.histogram("ft.epoch_wire_bytes").observe(static_cast<std::int64_t>(rec->wire_bytes));
    trace_span(rec->captured_at, rec->commit_latency(), "ft_epoch_commit",
               "\"epoch\":" + std::to_string(epoch) +
                   ",\"wire_bytes\":" + std::to_string(rec->wire_bytes));
  }

  if (epoch == 0 && !protected_) {
    // Initial sync committed: protection is live, epochs start flowing.
    protected_ = true;
    report_.protected_at = now;
    last_hb_ = now;
    hb_timer_ = loop_.schedule_every(options_.heartbeat_interval, [this] { send_heartbeat(); });
    watchdog_timer_ =
        loop_.schedule_every(options_.heartbeat_interval, [this] { watchdog_check(); });
    trace_instant(now, "ft_protected", "\"guest\":" + std::to_string(guest_id_));
    if (ready_) ready_(Status::ok());
  }
  epoch_timer_ = loop_.schedule_in(next_epoch_interval(), [this] { capture_epoch(); });
}

void FtController::send_heartbeat() {
  if (!protected_ || failed_over_ || finished_) return;
  // The primary host agent's liveness signal: stops when the container died
  // (process kill) and is dropped by the fabric when the host partitioned.
  if (!src_proc_->alive()) return;
  ByteWriter w;
  w.u8(1);
  (void)fabric_.send_ctrl(src_rt_->host(), dest_rt_->host(), hb_service_, w.data());
}

// ---------------------------------------------------------------------------
// Backup side: atomic epoch apply, ACK
// ---------------------------------------------------------------------------

void FtController::on_mux_epoch(Bytes&& payload) {
  if (finished_ || failed_over_) return;
  ByteReader r{payload};
  auto epoch = r.u64();
  auto inner = r.bytes();
  if (!epoch.is_ok() || !inner.is_ok()) {
    return fail(common::err(Errc::invalid_argument, "corrupt ft mux epoch frame"));
  }
  if (any_applied_ && epoch.value() <= applied_epoch_) {
    // Duplicate of an epoch already applied (the epoch-level ACK was lost):
    // re-ACK so the primary stops re-sending; never re-apply.
    ByteWriter w;
    w.u64(epoch.value());
    (void)fabric_.send_ctrl(dest_rt_->host(), src_rt_->host(), ack_service_, w.data());
    return;
  }
  handle_epoch_payload(epoch.value(), std::move(inner.value()));
}

void FtController::handle_epoch_payload(std::uint64_t epoch, Bytes payload) {
  sim::DurationNs cost = 0;
  const Status st = epoch == 0 ? apply_full_sync(payload, cost) : apply_epoch(payload, cost);
  if (!st.is_ok()) return fail(st);
  applied_epoch_ = epoch;
  any_applied_ = true;
  trace_span(loop_.now(), cost, "ft_epoch_apply", "\"epoch\":" + std::to_string(epoch));
  // The ACK leaves once the backup actually finished applying.
  loop_.schedule_in(cost, [this, epoch] {
    if (finished_ || failed_over_) return;
    ByteWriter w;
    w.u64(epoch);
    // Deferred past the apply cost, so the fabric-installed sender context
    // is gone — re-anchor the ack flow to the protection's root scope.
    obs::CtxScope cscope(obs::Tracer::global(),
                         obs::TraceContext{trace_id_, root_span_});
    (void)fabric_.send_ctrl(dest_rt_->host(), src_rt_->host(), ack_service_, w.data());
  });
}

Status FtController::apply_full_sync(const Bytes& payload, sim::DurationNs& cost) {
  ByteReader r{payload};
  auto mem_bytes = r.view();
  auto page_bytes = r.view();
  auto rdma_bytes = r.view();
  if (!mem_bytes.is_ok() || !page_bytes.is_ok() || !rdma_bytes.is_ok()) {
    return common::err(Errc::invalid_argument, "corrupt ft sync payload");
  }
  auto mem_image = criu::MemoryImage::parse(mem_bytes.value());
  auto pages = criu::PageSet::parse(page_bytes.value());
  if (!mem_image.is_ok() || !pages.is_ok()) {
    return common::err(Errc::invalid_argument, "corrupt ft sync image");
  }

  // Same standby-preparation trick as migration pre-setup (§3.2), held for
  // the protection lifetime: device memory premapped before the restorer
  // starts, RDMA resources staged, partner replacement QPs pre-established
  // but not switched — failover pays none of this.
  MIGR_RETURN_IF_ERROR(plugin_.premap(rdma_bytes.value(), *dest_rt_, *dest_proc_));
  cost += plugin_.take_cost();
  pinned_ = Plugin::pinned_vma_starts(mem_image.value(), plugin_.predump_image());

  MIGR_ASSIGN_OR_RETURN(auto begin_rep, restorer_->begin(mem_image.value(), pinned_));
  cost += begin_rep.cost;
  MIGR_ASSIGN_OR_RETURN(auto pages_rep, restorer_->apply_pages(pages.value()));
  cost += pages_rep.cost;

  MIGR_RETURN_IF_ERROR(plugin_.pre_setup(rdma_bytes.value(), *dest_rt_, *dest_proc_));
  cost += plugin_.take_cost();
  MIGR_RETURN_IF_ERROR(presetup_partners());
  cost += plugin_.staged().take_ctrl_cost();

  // Until an incremental epoch lands, promotion applies an empty final
  // delta: nothing changed vs the pre-dump the staged restore came from.
  migrlib::RdmaImage empty;
  empty.final = true;
  last_rdma_delta_ = empty.serialize();
  return Status::ok();
}

Status FtController::apply_epoch(const Bytes& payload, sim::DurationNs& cost) {
  ByteReader r{payload};
  auto mem_bytes = r.view();
  auto page_bytes = r.view();
  auto rdma_bytes = r.view();
  if (!mem_bytes.is_ok() || !page_bytes.is_ok() || !rdma_bytes.is_ok()) {
    return common::err(Errc::invalid_argument, "corrupt ft epoch payload");
  }
  auto mem_image = criu::MemoryImage::parse(mem_bytes.value());
  auto pages = criu::PageSet::parse(page_bytes.value());
  if (!mem_image.is_ok() || !pages.is_ok()) {
    return common::err(Errc::invalid_argument, "corrupt ft epoch image");
  }
  MIGR_ASSIGN_OR_RETURN(auto up, restorer_->update(mem_image.value(), pinned_));
  cost += up.cost;
  MIGR_ASSIGN_OR_RETURN(auto ap, restorer_->apply_pages(pages.value()));
  cost += ap.cost;
  // Promotion applies it after this payload is gone: the one section copied.
  last_rdma_delta_.assign(rdma_bytes->begin(), rdma_bytes->end());
  return Status::ok();
}

Status FtController::presetup_partners() {
  partners_.clear();
  for (const auto& q : plugin_.predump_image().qps) {
    if (!q.connected || !q.peer_is_migrrdma || q.peer_guest == 0) continue;
    if (q.peer_guest == guest_id_) continue;
    GuestContext* partner = partner_guest(q.peer_guest);
    if (partner == nullptr) {
      return common::err(Errc::unavailable, "partner guest not reachable");
    }
    MIGR_ASSIGN_OR_RETURN(auto partner_new_pqpn, partner->partner_prepare_qp(q.dest_vqpn));
    MIGR_ASSIGN_OR_RETURN(auto dest_pqpn, plugin_.staged().pqpn(q.vqpn));
    const rnic::Psn psn_a = next_psn();
    const rnic::Psn psn_b = next_psn();
    MIGR_RETURN_IF_ERROR(plugin_.staged().connect_qp(
        q.vqpn, directory_.locate(q.peer_guest), partner_new_pqpn, psn_a, psn_b));
    MIGR_RETURN_IF_ERROR(partner->partner_connect_qp(q.dest_vqpn, dest_rt_->host(),
                                                     dest_pqpn, psn_b, psn_a));
    plugin_.staged().set_peer_endpoint(q.vqpn, directory_.locate(q.peer_guest),
                                       partner_new_pqpn, q.peer_guest);
    (void)partner->raw().take_ctrl_cost();
    if (std::find(partners_.begin(), partners_.end(), q.peer_guest) == partners_.end()) {
      partners_.push_back(q.peer_guest);
    }
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Failover: detect -> promote -> restore -> re-arm -> recovery
// ---------------------------------------------------------------------------

void FtController::watchdog_check() {
  if (!protected_ || failed_over_ || finished_) return;
  const sim::DurationNs silence = loop_.now() - last_hb_;
  if (silence <= options_.missed_heartbeats * options_.heartbeat_interval) return;
  trigger_failover("heartbeat silence " + std::to_string(silence) + "ns");
}

void FtController::trigger_failover(const std::string& reason) {
  if (failed_over_ || finished_) return;
  failed_over_ = true;
  protected_ = false;
  stop_timers();
  mux_->cancel();  // no chunk retransmits from the dead primary
  report_.failed_over = true;
  report_.failover_reason = reason;
  report_.detected_at = loop_.now();
  if (report_.killed_at == 0) {
    // Kill time unknown (no mark): the last heartbeat is the closest
    // observable lower bound on the death.
    report_.killed_at = last_hb_;
  }
  wf_cursor_ = report_.killed_at;
  obs::SliHub::global().on_freeze(guest_id_, report_.killed_at);
  obs::Registry::global().counter("ft.failovers").inc();
  MIGR_WARN() << "ft failover for guest " << guest_id_ << ": " << reason;
  trace_instant(report_.detected_at, "ft_failover_detected",
                "\"guest\":" + std::to_string(guest_id_));
  push_waterfall("detect", report_.detected_at - report_.killed_at,
                 "\"reason\":\"heartbeat\"");
  // Detection latency is heartbeat-silence waiting: ctrl-plane time by
  // nature, not restore work.
  cp_.add(report_.killed_at, report_.detected_at, obs::EdgeClass::ctrl_rtt, "detect");
  phase_promote();
}

void FtController::phase_promote() {
  // Exactly-once claim of the guest: the CAS fails loudly if another backup
  // (or a retry) already took it — no silent overwrite of the winner.
  if (auto st = directory_.takeover(guest_id_, src_rt_->host(), dest_rt_->host());
      !st.is_ok()) {
    return fail(st);
  }

  // Partners stop talking to the corpse: suspend the flows toward the dead
  // peer and harvest in-flight WRs immediately — there is no live peer to
  // wait-before-stop against, so the WBS degenerates to a forced harvest.
  if (partners_.empty()) partners_ = guest_->connected_peers();
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner == nullptr) continue;
    partner->set_wbs_done_callback(nullptr);
    partner->suspend(migrlib::SuspendScope{false, guest_id_});
    if (!partner->wbs_done()) partner->force_wbs_timeout();
  }

  auto owned = src_rt_->release_guest(guest_);
  if (owned == nullptr) return fail(common::err(Errc::internal, "guest ownership lost"));

  // Restore: remap staged VMAs, land deferred pages — the committed-epoch
  // memory is already applied, this is the staging->final flip.
  auto fin = restorer_->finish();
  if (!fin.is_ok()) return fail(fin.status());
  const sim::DurationNs restore_cost = fin->cost;

  // Re-arm: adopt the pre-staged RDMA resources with the last committed
  // delta, then partners switch to their pre-established replacement QPs.
  if (auto st = plugin_.full_restore(*guest_, last_rdma_delta_, *dest_rt_); !st.is_ok()) {
    return fail(st);
  }
  dest_rt_->adopt_guest(std::move(owned));
  sim::DurationNs rearm_cost = plugin_.take_cost();
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner == nullptr) continue;
    for (migrlib::VQpn vqpn : partner->qps_to_peer(guest_id_)) {
      if (auto st = partner->partner_switch_qp(vqpn, guest_id_); !st.is_ok()) {
        return fail(st);
      }
    }
    partner->update_peer_location(guest_id_, dest_rt_->host());
    // Partner-side control path: partner brownout, not failover blackout.
    (void)partner->raw().take_ctrl_cost();
  }

  report_.promoted_epoch = any_applied_ ? applied_epoch_ : 0;
  sim::TimeNs cp_t = wf_cursor_;
  push_waterfall("promote", options_.promote_cost,
                 "\"epoch\":" + std::to_string(report_.promoted_epoch));
  cp_.add(cp_t, wf_cursor_, obs::EdgeClass::ctrl_rtt, "promote");
  cp_t = wf_cursor_;
  push_waterfall("restore", restore_cost,
                 "\"deferred\":" + std::to_string(fin->deferred.size()));
  cp_.add(cp_t, wf_cursor_, obs::EdgeClass::restore_apply, "restore");
  cp_t = wf_cursor_;
  push_waterfall("re_arm", rearm_cost,
                 "\"partners\":" + std::to_string(partners_.size()));
  cp_.add(cp_t, wf_cursor_, obs::EdgeClass::qp_reestablish, "re_arm");

  // Output commit resolution happens at resume: messages of uncommitted
  // epochs never became visible and the state that generated them is gone —
  // drop them before the committed backlog flushes.
  const std::uint64_t committed = report_.promoted_epoch;
  loop_.schedule_in(options_.promote_cost + restore_cost + rearm_cost, [this, committed] {
    if (finished_) return;
    // Re-point the app (and its MsgNode) at the promoted process first: the
    // committed backlog released below is written into send slots in guest
    // memory, and written into the dead primary's memory the promoted
    // guest's QPs would send whatever its restored slots held. The backlog
    // is non-empty when the primary died before the promoted epoch's ACK
    // reached it.
    if (app_ != nullptr) app_->on_migrated(*dest_proc_);
    const std::uint64_t dropped = node_->drop_uncommitted(committed);
    node_->resync_window();
    const std::uint64_t released_before = node_->gate_released();
    node_->release_through(committed);
    node_->disarm_output_commit();
    phase_ft_resume(node_->gate_released() - released_before, dropped);
  });
}

void FtController::phase_ft_resume(std::uint64_t released, std::uint64_t dropped) {
  // Partners held their sends to the guest since the switch; it runs again.
  if (auto st = migrlib::resume_partners(directory_, partners_, guest_id_); !st.is_ok()) {
    return fail(st);
  }
  finished_ = true;
  report_.resume_at = loop_.now();
  obs::SliHub::global().on_resume(guest_id_, report_.resume_at);
  push_waterfall("recovery", 0,
                 "\"released\":" + std::to_string(released) +
                     ",\"dropped\":" + std::to_string(dropped));

  if (cp_.enabled() && report_.killed_at != 0 && report_.resume_at != 0) {
    report_.critical_path = cp_.resolve(report_.killed_at, report_.resume_at);
  }

  report_.ok = true;
  finish_report();
  trace_instant(report_.resume_at, "ft_resume", "\"guest\":" + std::to_string(guest_id_));
  trace_blackout_span(report_.killed_at, report_.failover_blackout(), "ft_blackout",
                      "\"guest\":" + std::to_string(guest_id_));

  auto& reg = obs::Registry::global();
  reg.counter("ft.failovers_completed").inc();
  reg.gauge("ft.report.detect_ns")
      .set(static_cast<double>(report_.detected_at - report_.killed_at));
  reg.gauge("ft.report.blackout_ns").set(static_cast<double>(report_.failover_blackout()));
  reg.gauge("ft.report.promoted_epoch").set(static_cast<double>(report_.promoted_epoch));
  reg.gauge("ft.report.dropped_msgs").set(static_cast<double>(dropped));
  reg.histogram("ft.blackout_ns").observe(report_.failover_blackout());

  (void)obs::Tracer::global().flush();
  if (done_) done_(report_);
}

}  // namespace migr::ft
