#include "ft/ft.hpp"

#include <algorithm>

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
using migrlib::GuestMove;

namespace {
// PSNs of the replacement connections a standby establishes; the flight
// recorder's wire capture carries them.
constexpr rnic::Psn kPsnBase = 700'000;
// Bounds of the adaptive epoch cadence.
constexpr sim::DurationNs kMinEpochInterval = sim::msec(2);
constexpr sim::DurationNs kMaxEpochInterval = sim::msec(50);
// Control-plane bookkeeping charged to the promote slice (directory CAS,
// ownership transfer, partner notifications).
constexpr sim::DurationNs kPromoteCost = sim::usec(50);
}  // namespace

sim::DurationNs budget_epoch_interval(std::uint64_t budget, double dirty_bytes_per_sec) {
  if (dirty_bytes_per_sec <= 0) return kMaxEpochInterval;
  const double sec = static_cast<double>(budget) / dirty_bytes_per_sec;
  const auto iv = static_cast<sim::DurationNs>(sec * sim::kSecond);
  return std::clamp(iv, kMinEpochInterval, kMaxEpochInterval);
}

void FtReport::write(common::Json& j) const {
  j.obj().key("kind").val("ft_report").key("version").val(1).key("guest").val(guest);
  j.key("primary_host").val(primary_host).key("backup_host").val(backup_host);
  j.key("ok").val(ok).key("error").val(error).key("protect_start_ns").val(protect_start);
  j.key("protected_at_ns").val(protected_at).key("end_ns").val(end);

  j.key("epochs").obj().key("captured").val(epochs_captured);
  j.key("committed").val(epochs_committed).key("full_sync_bytes").val(full_sync_bytes);
  j.key("epoch_bytes_total").val(epoch_bytes_total);
  j.key("xfer_bytes_attempted").val(xfer_bytes_attempted);
  j.key("xfer_bytes_delivered").val(xfer_bytes_delivered);
  j.key("transfer_retries").val(transfer_retries).key("records").arr();
  for (const EpochRecord& r : epochs) {
    j.obj().key("epoch").val(r.epoch).key("captured_at_ns").val(r.captured_at);
    j.key("committed_at_ns").val(r.committed_at).key("commit_latency_ns").val(r.commit_latency());
    j.key("freeze_ns").val(r.freeze_ns).key("mem_bytes").val(r.mem_bytes);
    j.key("rdma_bytes").val(r.rdma_bytes).key("wire_bytes").val(r.wire_bytes);
    j.key("released_msgs").val(r.released_msgs).key("retries").val(r.retries).end();
  }
  j.end();
  // Stream-level rollups of the epoch-sync mux.
  j.key("streams").obj().key("count").val(xfer_streams).key("chunks").val(xfer_chunks);
  j.key("bytes_lost").val(xfer_bytes_lost).key("per_stream");
  migrlib::write_streams(j, xfer_stream_stats);
  j.end().end();

  j.key("output_commit").obj().key("buffered").val(msgs_buffered);
  j.key("released").val(msgs_released).key("dropped").val(msgs_dropped);
  j.key("release_delay_p50_ns").val(release_delay_p50);
  j.key("release_delay_p99_ns").val(release_delay_p99);
  j.key("release_delay_max_ns").val(release_delay_max).end();

  const sim::DurationNs blackout = failed_over ? failover_blackout() : 0;
  j.key("failover").obj().key("occurred").val(failed_over).key("reason").val(failover_reason);
  j.key("killed_at_ns").val(killed_at).key("detected_at_ns").val(detected_at);
  j.key("resume_at_ns").val(resume_at).key("blackout_ns").val(blackout);
  j.key("promoted_epoch").val(promoted_epoch);
  // Waterfall block with the same shape as MigrationReport::write_waterfall,
  // so the validator's tiling-cursor check is reusable verbatim.
  j.key("waterfall").obj().key("freeze_at_ns").val(killed_at).key("resume_at_ns").val(resume_at);
  j.key("blackout_ns").val(blackout).key("slices");
  migrlib::write_slices(j, waterfall);
  j.end();
  if (critical_path.valid) {
    j.key("critical_path");
    critical_path.write(j);
  }
  j.end().end();
}

FtController::FtController(sim::EventLoop& loop, net::Fabric& fabric,
                           migrlib::GuestDirectory& directory, FtOptions options)
    : loop_(loop), fabric_(fabric), directory_(directory), options_(options),
      move_(loop, fabric, directory, "ft", kPsnBase, options.criu_costs) {}

FtController::~FtController() {
  stop_timers();
  if (services_registered_) {
    fabric_.unregister_service(move_.src_rt().host(), ack_service_);
    fabric_.unregister_service(move_.dest_rt().host(), hb_service_);
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
  if (node == nullptr) return common::err(Errc::invalid_argument, "ft needs the guest's MsgNode");
  migrlib::XferOptions xo;
  xo.streams = options_.xfer_streams;
  xo.chunk_bytes = options_.chunk_bytes;
  MIGR_RETURN_IF_ERROR(move_.open(id, backup_host, backup_proc, "ft.xfer", xo));
  app_ = app;
  node_ = node;
  ready_ = std::move(ready);
  done_ = std::move(done);
  if (options_.epoch_byte_budget > 0) {
    estimator_ = std::make_unique<criu::DirtyRateEstimator>(
        move_.src_proc(), criu::DirtyRateEstimator::kDefaultSeed + id);
  }

  const net::HostId primary_host = move_.src_rt().host();
  ack_service_ = "ft.ack." + std::to_string(id);
  hb_service_ = "ft.hb." + std::to_string(id);
  fabric_.register_service(primary_host, ack_service_, [this](net::HostId, Bytes&& p) {
    ByteReader r{p};
    auto e = r.u64();
    if (e.is_ok()) on_ack(e.value());
  });
  fabric_.register_service(backup_host, hb_service_,
                           [this](net::HostId, Bytes&&) { last_hb_ = loop_.now(); });
  services_registered_ = true;
  move_.mux().open([this](Bytes&& p) { on_mux_epoch(std::move(p)); },
                   [this](const Status& st) { fail(st); });

  report_ = FtReport{};
  report_.guest = id;
  report_.primary_host = primary_host;
  report_.backup_host = backup_host;
  report_.protect_start = loop_.now();
  move_.cp().set_enabled(options_.critical_path);

  // Output commit starts with protection, not with the sync's completion:
  // everything the guest emits from here on post-dates the epoch-0 state
  // and belongs to epoch 1.
  node_->arm_output_commit(1);
  next_epoch_ = 1;
  obs::SliHub::global().on_ft_protected(id, report_.protect_start);
  obs::Registry::global().counter("ft.protections_started").inc();
  // One causal scope per protection: epoch sync flows, backup-side apply
  // spans, and failover spans all parent back to this root.
  move_.trace_root(report_.protect_start, "ft_protect",
                   "\"guest\":" + std::to_string(id) +
                       ",\"backup_host\":" + std::to_string(backup_host));
  loop_.schedule_in(0, [this] { phase_full_sync(); });
  return Status::ok();
}

void FtController::end_protection() {
  finished_ = true;
  stop_timers();
  move_.mux().cancel();  // chunk timers must not outlive protection
  protected_ = false;
  if (failed_over_) {
    // Once failover started, partners may have switched QPs and be holding
    // their sends for a resume that will never come: release them.
    (void)move_.release_partners();
  } else {
    // The standby's staged RDMA state and the partners' prepared QPs go, so
    // a later migration of the guest prepares fresh ones. A primary stopped
    // mid-capture runs again: the capture's scheduled thaw returns once
    // protection has ended.
    move_.unstage();
    proc::SimProcess& primary = move_.src_proc();
    if (primary.frozen() && primary.alive()) primary.thaw();
  }
  // Never strand buffered egress: ending protection falls back to
  // unprotected operation, not to withholding the service's output.
  if (node_->output_commit_armed()) node_->disarm_output_commit();
  obs::SliHub::global().on_ft_released(move_.id(), loop_.now());
}

void FtController::fail(const Status& st) {
  if (finished_) return;
  MIGR_ERROR() << "ft protection of guest " << move_.id() << " failed: " << st.to_string();
  end_protection();
  obs::Registry::global().counter("ft.protections_failed").inc();
  report_.ok = false;
  report_.error = st.to_string();
  finish_report();
  if (done_) done_(report_);
}

void FtController::finish_report() {
  report_.end = loop_.now();
  report_.msgs_released = node_->gate_released();
  report_.msgs_dropped = node_->gate_dropped();
  report_.msgs_buffered = report_.msgs_released + report_.msgs_dropped + node_->gated_pending();
  const obs::Histogram& h = node_->release_delay();
  report_.release_delay_p50 = h.percentile(50);
  report_.release_delay_p99 = h.percentile(99);
  report_.release_delay_max = h.max();
  report_.epoch_bytes_total = 0;
  for (const EpochRecord& r : report_.epochs) {
    if (r.epoch >= 1) report_.epoch_bytes_total += r.wire_bytes;
  }
  const migrlib::XferStats& xs = move_.mux().stats();
  report_.xfer_streams = move_.mux().options().streams;
  report_.xfer_bytes_attempted = xs.attempted();
  report_.xfer_bytes_delivered = xs.delivered();
  report_.xfer_bytes_lost = xs.lost();
  report_.xfer_chunks = xs.chunks();
  report_.xfer_stream_stats = xs.streams;
}

EpochRecord* FtController::record(std::uint64_t epoch) {
  for (auto it = report_.epochs.rbegin(); it != report_.epochs.rend(); ++it) {
    if (it->epoch == epoch) return &*it;
  }
  return nullptr;
}

void FtController::unprotect() {
  if (finished_) return;
  end_protection();
  move_.instant(loop_.now(), "ft_unprotect", "\"guest\":" + std::to_string(move_.id()));
  report_.ok = true;
  finish_report();
  if (done_) done_(report_);
}

void FtController::kill_primary() {
  fabric_.set_partitioned(move_.src_rt().host(), true);
  move_.src_proc().kill();
  mark_primary_killed();
}

void FtController::mark_primary_killed() {
  if (report_.killed_at == 0) report_.killed_at = loop_.now();
  move_.instant(report_.killed_at, "ft_primary_killed",
                "\"guest\":" + std::to_string(move_.id()));
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
  auto dump = move_.ckpt().pre_dump();
  move_.src_rt().device().add_ctrl_pressure(dump.cost);
  const Bytes predump = move_.plugin().pre_dump(move_.guest());
  const sim::DurationNs cost = dump.cost + move_.plugin().take_cost();

  const std::uint64_t mem_bytes = dump.image.serialized_size() + dump.pages.serialized_size();
  inflight_payload_ = epoch_payload(dump.image, dump.pages, predump);
  inflight_epoch_ = 0;
  inflight_ = true;
  xfer_attempt_ = 0;
  report_.full_sync_bytes = inflight_payload_.size();

  EpochRecord rec;
  rec.epoch = 0;
  rec.captured_at = loop_.now();
  rec.freeze_ns = 0;  // live capture
  rec.mem_bytes = mem_bytes;
  rec.rdma_bytes = predump.size();
  report_.epochs.push_back(rec);
  report_.epochs_captured = 1;

  if (estimator_) estimator_->begin_interval(loop_.now());
  move_.span(loop_.now(), cost, "ft_full_sync",
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
  return budget_epoch_interval(options_.epoch_byte_budget, estimator_->bytes_per_sec());
}

void FtController::capture_epoch() {
  if (!protected_ || failed_over_ || finished_) return;
  const sim::TimeNs t0 = loop_.now();
  if (estimator_ && estimator_->open()) (void)estimator_->end_interval(t0);

  // Brief freeze: the epoch-scoped dump captures a consistent point. A
  // failed dump ends protection, which thaws the primary.
  move_.src_proc().freeze();
  auto ed = move_.ckpt().epoch_dump();
  if (!ed.is_ok()) return fail(ed.status());
  // Cumulative RDMA delta vs the protect-time pre-dump: the backup only
  // ever needs the *latest* delta at promotion, so each epoch carries the
  // full difference instead of a chain of per-epoch diffs.
  Bytes rdma_delta = move_.plugin().final_dump(move_.guest());
  const sim::DurationNs rdma_cost = move_.plugin().take_cost();
  move_.src_rt().device().add_ctrl_pressure(ed->cost);

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

  move_.span(t0, rec.freeze_ns, "ft_epoch_capture",
             "\"epoch\":" + std::to_string(epoch) +
                 ",\"pages\":" + std::to_string(ed->pages.pages.size()));
  loop_.schedule_in(rec.freeze_ns, [this, epoch] {
    if (finished_ || failed_over_) return;
    move_.src_proc().thaw();
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
  migrlib::TransferMux& mux = move_.mux();
  const std::uint64_t wire =
      migrlib::TransferMux::wire_size(frame.size(), mux.options().chunk_bytes);
  if (retry) mux.cancel();
  mux.send(std::move(frame));
  if (!retry) {
    if (EpochRecord* rec = record(epoch)) rec->wire_bytes = wire;
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
  if (EpochRecord* rec = record(epoch)) rec->retries++;
  obs::Registry::global().counter("ft.transfer_retries").inc();
  const sim::DurationNs backoff = std::min<sim::DurationNs>(
      options_.transfer_retry_backoff << (xfer_attempt_ - 1), migrlib::kMaxTransferBackoff);
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
  const sim::TimeNs now = loop_.now();

  EpochRecord* rec = record(epoch);
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
    move_.span(rec->captured_at, rec->commit_latency(), "ft_epoch_commit",
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
    move_.instant(now, "ft_protected", "\"guest\":" + std::to_string(move_.id()));
    if (ready_) ready_(Status::ok());
  }
  epoch_timer_ = loop_.schedule_in(next_epoch_interval(), [this] { capture_epoch(); });
}

void FtController::send_heartbeat() {
  if (!protected_ || failed_over_ || finished_) return;
  // The primary host agent's liveness signal: stops when the container died
  // (process kill) and is dropped by the fabric when the host partitioned.
  if (!move_.src_proc().alive()) return;
  ByteWriter w;
  w.u8(1);
  (void)fabric_.send_ctrl(move_.src_rt().host(), move_.dest_rt().host(), hb_service_, w.data());
}

// ---------------------------------------------------------------------------
// Backup side: atomic epoch apply, ACK
// ---------------------------------------------------------------------------

void FtController::on_mux_epoch(Bytes&& frame) {
  if (finished_ || failed_over_) return;
  auto parsed = migrlib::read_epoch_frame(frame);
  if (!parsed.is_ok()) {
    return fail(common::err(Errc::invalid_argument, "corrupt ft mux epoch frame"));
  }
  const std::uint64_t epoch = parsed->epoch;
  const net::HostId backup = move_.dest_rt().host();
  const net::HostId primary = move_.src_rt().host();
  if (any_applied_ && epoch <= applied_epoch_) {
    // Duplicate of an epoch already applied (the epoch-level ACK was lost):
    // re-ACK so the primary stops re-sending; never re-apply.
    ByteWriter w;
    w.u64(epoch);
    (void)fabric_.send_ctrl(backup, primary, ack_service_, w.data());
    return;
  }
  auto cost = apply_image(epoch, parsed->payload);
  if (!cost.is_ok()) return fail(cost.status());
  applied_epoch_ = epoch;
  any_applied_ = true;
  move_.span(loop_.now(), cost.value(), "ft_epoch_apply", "\"epoch\":" + std::to_string(epoch));
  // The ACK leaves once the backup actually finished applying.
  loop_.schedule_in(cost.value(), [this, epoch, backup, primary] {
    if (finished_ || failed_over_) return;
    ByteWriter w;
    w.u64(epoch);
    // Deferred past the apply cost, so the fabric-installed sender context
    // is gone — re-anchor the ack flow to the protection's root scope.
    obs::CtxScope cscope(obs::Tracer::global(), move_.trace_ctx());
    (void)fabric_.send_ctrl(backup, primary, ack_service_, w.data());
  });
}

common::Result<sim::DurationNs> FtController::apply_image(std::uint64_t epoch,
                                                          migrlib::Section payload) {
  MIGR_ASSIGN_OR_RETURN(const auto sections, migrlib::read_sections<3>(payload));
  const auto& [mem_bytes, page_bytes, rdma_bytes] = sections;
  auto mem_image = criu::MemoryImage::parse(mem_bytes);
  auto pages = criu::PageSet::parse(page_bytes);
  if (!mem_image.is_ok() || !pages.is_ok()) {
    return common::err(Errc::invalid_argument, "corrupt ft epoch image");
  }
  if (epoch != 0) {
    MIGR_ASSIGN_OR_RETURN(const sim::DurationNs cost,
                          move_.update(mem_image.value(), pages.value()));
    // Promotion applies it after this payload is gone: the one section copied.
    last_rdma_delta_.assign(rdma_bytes.begin(), rdma_bytes.end());
    return cost;
  }
  // The full sync: the same standby preparation as migration pre-setup
  // (§3.2), held for the protection lifetime — device memory premapped
  // before the restorer starts, RDMA resources staged, partner replacement
  // QPs pre-established but not switched. Failover pays none of this.
  MIGR_ASSIGN_OR_RETURN(const sim::DurationNs staged,
                        move_.stage(mem_image.value(), pages.value(), &rdma_bytes));
  MIGR_ASSIGN_OR_RETURN(const sim::DurationNs rdma, move_.setup_rdma(rdma_bytes));
  // Until an incremental epoch lands, promotion applies an empty final
  // delta: nothing changed vs the pre-dump the staged restore came from.
  migrlib::RdmaImage empty;
  empty.final = true;
  last_rdma_delta_ = empty.serialize();
  return staged + rdma;
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
  move_.mux().cancel();  // no chunk retransmits from the dead primary
  report_.failed_over = true;
  report_.failover_reason = reason;
  report_.detected_at = loop_.now();
  if (report_.killed_at == 0) {
    // Kill time unknown (no mark): the last heartbeat is the closest
    // observable lower bound on the death.
    report_.killed_at = last_hb_;
  }
  move_.open_slices(report_.waterfall, report_.killed_at);
  obs::SliHub::global().on_freeze(move_.id(), report_.killed_at);
  obs::Registry::global().counter("ft.failovers").inc();
  MIGR_WARN() << "ft failover for guest " << move_.id() << ": " << reason;
  move_.instant(report_.detected_at, "ft_failover_detected",
                "\"guest\":" + std::to_string(move_.id()));
  // Detection latency is heartbeat-silence waiting: ctrl-plane time by
  // nature, not restore work.
  move_.push_slice("detect", report_.detected_at - report_.killed_at, obs::EdgeClass::ctrl_rtt,
                   "\"reason\":\"heartbeat\"");
  phase_promote();
}

void FtController::phase_promote() {
  // Exactly-once claim of the guest: the CAS fails loudly if another backup
  // (or a retry) already took it — no silent overwrite of the winner.
  if (auto st = directory_.takeover(move_.id(), move_.src_rt().host(), move_.dest_rt().host());
      !st.is_ok()) {
    return fail(st);
  }

  // Partners stop talking to the corpse: suspend the flows toward the dead
  // peer and harvest in-flight WRs immediately — there is no live peer to
  // wait-before-stop against, so the WBS degenerates to a forced harvest.
  move_.fall_back_to_peers();
  move_.suspend_partners(nullptr, /*harvest=*/true);

  // Restore: remap staged VMAs, land deferred pages — the committed-epoch
  // memory is already applied, this is the staging->final flip.
  auto fin = move_.restorer().finish();
  if (!fin.is_ok()) return fail(fin.status());
  const sim::DurationNs restore_cost = fin->cost;

  // Re-arm: adopt the pre-staged RDMA resources with the last committed
  // delta, then partners switch to their pre-established replacement QPs.
  auto rearm = move_.commit(last_rdma_delta_);
  if (!rearm.is_ok()) return fail(rearm.status());
  const sim::DurationNs rearm_cost = rearm.value();

  report_.promoted_epoch = applied_epoch_;
  move_.push_slice("promote", kPromoteCost, obs::EdgeClass::ctrl_rtt,
                   "\"epoch\":" + std::to_string(report_.promoted_epoch));
  move_.push_slice("restore", restore_cost, obs::EdgeClass::restore_apply,
                   "\"deferred\":" + std::to_string(fin->deferred.size()));
  move_.push_slice("re_arm", rearm_cost, obs::EdgeClass::qp_reestablish,
                   "\"partners\":" + std::to_string(move_.partners().size()));

  // Output commit resolution happens at resume: messages of uncommitted
  // epochs never became visible and the state that generated them is gone —
  // drop them before the committed backlog flushes.
  const std::uint64_t committed = report_.promoted_epoch;
  loop_.schedule_in(kPromoteCost + restore_cost + rearm_cost, [this, committed] {
    if (finished_) return;
    // Re-point the app (and its MsgNode) at the promoted process first: the
    // committed backlog released below is written into send slots in guest
    // memory, and written into the dead primary's memory the promoted
    // guest's QPs would send whatever its restored slots held. The backlog
    // is non-empty when the primary died before the promoted epoch's ACK
    // reached it.
    if (app_ != nullptr) app_->on_migrated(move_.dest_proc());
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
  if (auto st = move_.resume(); !st.is_ok()) return fail(st);
  const GuestId id = move_.id();
  finished_ = true;
  report_.resume_at = loop_.now();
  obs::SliHub::global().on_resume(id, report_.resume_at);
  move_.push_slice("recovery", 0, obs::EdgeClass::slack,
                   "\"released\":" + std::to_string(released) +
                       ",\"dropped\":" + std::to_string(dropped));
  move_.resolve_cp(report_.critical_path, report_.killed_at, report_.resume_at);

  report_.ok = true;
  finish_report();
  move_.instant(report_.resume_at, "ft_resume", "\"guest\":" + std::to_string(id));
  GuestMove::blackout_span(report_.killed_at, report_.failover_blackout(), "ft_blackout",
                           "\"guest\":" + std::to_string(id));

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
