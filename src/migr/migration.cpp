#include "migr/migration.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace migr::migrlib {

using common::Bytes;
using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Status;

namespace {
// Workflow spans (Fig. 2(b) steps) are emitted with explicit sim timestamps
// and durations taken from the same values that land in MigrationReport, so
// a trace is field-for-field consistent with the report. Every span draws a
// fresh id and parent-links to the current TraceContext: spans emitted
// inside a ctrl-message handler link back to the sender's span (the fabric
// installs the piggybacked context), the rest are roots of the migration's
// causal tree.
std::uint64_t trace_span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                         std::string args = {}) {
  auto& t = obs::Tracer::global();
  if (!t.enabled()) return 0;
  const std::uint64_t id = t.new_id();
  t.complete(start, dur, name, "migr", std::move(args), id, t.context().span_id);
  return id;
}

std::uint64_t trace_instant(sim::TimeNs at, std::string_view name, std::string args = {}) {
  auto& t = obs::Tracer::global();
  if (!t.enabled()) return 0;
  const std::uint64_t id = t.new_id();
  t.instant(at, name, "migr", std::move(args), id, t.context().span_id);
  return id;
}

// Blackout-waterfall spans nest under the workflow spans on their own
// "migr.blackout" track (a separate category so the field-for-field span
// checks on "migr" keep their one-event-per-name shape).
void trace_blackout_span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                         std::string args = {}) {
  auto& t = obs::Tracer::global();
  if (t.enabled()) {
    t.complete(start, dur, name, "migr.blackout", std::move(args), t.new_id(),
               t.context().span_id);
  }
}
}  // namespace

const char* migration_mode_name(MigrationMode m) noexcept {
  switch (m) {
    case MigrationMode::precopy: return "precopy";
    case MigrationMode::postcopy: return "postcopy";
  }
  return "?";
}

std::string MigrationReport::waterfall_json() const {
  std::string out = std::string{"{\"mode\":\""} + migration_mode_name(mode) +
                    "\",\"freeze_at_ns\":" + std::to_string(freeze_at) +
                    ",\"resume_at_ns\":" + std::to_string(resume_at) +
                    ",\"blackout_ns\":" + std::to_string(service_blackout()) +
                    ",\"aborted\":" + (aborted ? "true" : "false") + ",\"slices\":[";
  for (std::size_t i = 0; i < waterfall.size(); ++i) {
    const PhaseSlice& s = waterfall[i];
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
  return out;
}

void MigrationController::push_waterfall(std::string name, sim::DurationNs dur,
                                         std::string detail) {
  trace_blackout_span(wf_cursor_, dur, name, detail);
  report_.waterfall.push_back(PhaseSlice{std::move(name), wf_cursor_, dur, std::move(detail)});
  wf_cursor_ += dur;
}

void MigrationController::resolve_critical_path() {
  if (!cp_.enabled()) return;
  if (report_.freeze_at == 0 || report_.resume_at == 0) return;
  report_.critical_path = cp_.resolve(report_.freeze_at, report_.resume_at);
}

MigrationController::MigrationController(sim::EventLoop& loop, net::Fabric& fabric,
                                         GuestDirectory& directory, MigrationOptions options)
    : loop_(loop), fabric_(fabric), directory_(directory), options_(options),
      plugin_(options.migr_costs), psn_cursor_(options.psn_seed) {}

Status MigrationController::start(GuestId id, net::HostId dest_host,
                                  proc::SimProcess& dest_proc, MigratableApp* app,
                                  DoneCb done) {
  guest_id_ = id;
  done_ = std::move(done);
  app_ = app;
  dest_proc_ = &dest_proc;

  src_rt_ = directory_.runtime_of(id);
  dest_rt_ = directory_.runtime_at(dest_host);
  if (src_rt_ == nullptr || dest_rt_ == nullptr) {
    return common::err(Errc::not_found, "unknown source or destination host");
  }
  if (src_rt_ == dest_rt_) {
    return common::err(Errc::invalid_argument, "source and destination are the same host");
  }
  guest_ = src_rt_->find_guest(id);
  if (guest_ == nullptr) return common::err(Errc::not_found, "no such guest");
  src_proc_ = &guest_->process();
  src_ctx_ = &guest_->raw();

  // Hybrid limitation (§6): a service with a non-MigrRDMA partner cannot be
  // migrated — wait-before-stop cannot run on that partner.
  if (guest_->has_raw_peer()) {
    return common::err(Errc::failed_precondition,
                       "guest has non-MigrRDMA partners; migration unsupported (§6)");
  }

  ckpt_ = std::make_unique<criu::Checkpointer>(*src_proc_, options_.criu_costs);
  restorer_ = std::make_unique<criu::Restorer>(*dest_proc_, options_.criu_costs);

  // One mux per controller *instance*: a retried migration gets fresh
  // stream services instead of colliding with (and later tearing down) a
  // newer controller's registrations for the same guest.
  XferOptions xo;
  xo.streams = options_.xfer_streams;
  xo.stream_gbps = options_.xfer_stream_gbps;
  xo.chunk_bytes = options_.xfer_chunk_bytes;
  xo.chunk_timeout = options_.transfer_timeout;
  xo.max_chunk_retries = options_.max_transfer_retries;
  xo.retry_backoff = options_.transfer_retry_backoff;
  xo.max_backoff = options_.max_transfer_backoff;
  xo.cp = &cp_;  // no-op until options_.critical_path arms the recorder
  mux_ = std::make_unique<TransferMux>(
      loop_, fabric_,
      "migr.xfer." + std::to_string(id) + "." + std::to_string(fabric_.next_service_instance()),
      src_rt_->host(), dest_rt_->host(), xo);
  if (options_.suppress_pages) {
    page_enc_ = std::make_unique<criu::PageDeltaEncoder>(
        criu::PageDeltaConfig{options_.delta_threshold});
    page_dec_ = std::make_unique<criu::PageDeltaDecoder>();
  }

  report_ = MigrationReport{};
  report_.start = loop_.now();
  report_.mode = options_.mode;
  if (options_.adaptive_precopy && options_.mode == MigrationMode::precopy) {
    criu::DirtyRateConfig cfg = options_.dirty_rate;
    cfg.seed += guest_id_;  // distinct sample sets per guest, still seeded
    estimator_ = std::make_unique<criu::DirtyRateEstimator>(*src_proc_, cfg);
  }
  // Brownout attribution: iteration 0 covers the initial full copy +
  // partial restore; phase_precopy_round advances it per dirty round.
  obs::SliHub::global().on_migration_start(guest_id_, report_.start);
  obs::Registry::global().counter("migr.migrations_started").inc();
  cp_.clear();
  cp_.set_enabled(options_.critical_path);
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // One trace per migration; the start instant carries the root span id
    // every span of this migration ultimately parents to.
    trace_id_ = tracer.new_id();
    root_span_ = tracer.new_id();
    tracer.instant(report_.start, "migration_start", "migr",
                   "\"guest\":" + std::to_string(guest_id_) +
                       ",\"dest_host\":" + std::to_string(dest_host),
                   root_span_, 0);
  }
  loop_.schedule_in(0, [this] {
    obs::CtxScope scope(obs::Tracer::global(), trace_ctx());
    phase_initial_dump();
  });
  return Status::ok();
}

void MigrationController::fail(const Status& st) {
  MIGR_ERROR() << "migration of guest " << guest_id_ << " failed: " << st.to_string();
  // Timer hygiene: a stale WBS or transfer timer must never fire into a
  // completed, failed, or rolled-back migration.
  wbs_timeout_handle_.cancel();
  reset_throttle();
  mux_->cancel();
  sync_mux_stats();
  // Past the commit point partners may have switched QPs and be holding
  // their sends for the guest's resume, which will never come: release them.
  if (committed_) (void)resume_partners(directory_, partners_, guest_id_);
  report_.ok = false;
  report_.error = st.to_string();
  report_.end = loop_.now();
  obs::SliHub::global().on_migration_end(guest_id_, report_.end);
  report_.brownout = obs::SliHub::global().attribution(guest_id_);
  obs::Registry::global().counter("migr.migrations_failed").inc();
  trace_instant(loop_.now(), "migration_failed", "\"guest\":" + std::to_string(guest_id_));
  // A failed run never reaches a tool's normal trace write; flush so the
  // partial trace is still loadable.
  (void)obs::Tracer::global().flush();
  if (done_) done_(report_);
}

void MigrationController::abort(const Status& st) {
  if (committed_) return fail(st);  // source released: nothing to roll back to
  MIGR_WARN() << "aborting migration of guest " << guest_id_ << " during " << phase_
              << ": " << st.to_string();
  wbs_timeout_handle_.cancel();
  reset_throttle();
  xfer_cb_ = nullptr;
  // Drop in-flight chunks and the queue; the stats survive so the report
  // still accounts what the aborted run attempted (lost = attempted -
  // delivered covers the chunks the abort stranded).
  mux_->cancel();
  sync_mux_stats();

  // Detach the WBS machinery from this (dead) migration and roll the
  // partners back: destroy prepared-but-unswitched replacement QPs, then
  // lift their suspension so traffic to the source resumes.
  guest_->set_wbs_done_callback(nullptr);
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner == nullptr) continue;
    partner->set_wbs_done_callback(nullptr);
    partner->partner_abort_prepared(guest_id_);
    if (partner->suspended()) (void)partner->abort_suspension();
  }

  // Resume the source service in place.
  if (src_proc_->frozen()) src_proc_->thaw();
  if (guest_->suspended()) (void)guest_->abort_suspension();

  // Reclaim everything staged on the destination RNIC.
  plugin_.abort_staged();

  report_.ok = false;
  report_.aborted = true;
  report_.abort_reason = st.to_string();
  report_.abort_phase = phase_;
  report_.error = st.to_string();
  report_.end = loop_.now();
  report_.source_resumed = !src_proc_->frozen() && !guest_->suspended();

  // Blackout bookkeeping for an abort after the freeze: the source just
  // thawed, so the service blackout ends NOW (on the source, not the
  // destination). Close the waterfall with an attribution slice covering
  // whatever ran between the last completed phase and the rollback, keeping
  // the sum-equals-blackout invariant on aborted reports too.
  if (report_.freeze_at != 0 && report_.resume_at == 0) {
    report_.resume_at = loop_.now();
    push_waterfall(std::string{"aborted_in_"} + phase_, loop_.now() - wf_cursor_,
                   "\"guest\":" + std::to_string(guest_id_));
    trace_blackout_span(report_.freeze_at, report_.service_blackout(), "blackout",
                        "\"guest\":" + std::to_string(guest_id_) + ",\"aborted\":true");
    // Whatever the recorder saw before the rollback still attributes the
    // freeze-to-thaw window; the un-attributed remainder resolves to slack.
    resolve_critical_path();
  }

  // Rolled back: the source service is live again, so SLI-wise the guest
  // goes back to idle (no recovery phase — the service never moved).
  obs::SliHub::global().on_migration_end(guest_id_, report_.end);
  report_.brownout = obs::SliHub::global().attribution(guest_id_);

  auto& reg = obs::Registry::global();
  reg.counter("migr.migrations_aborted").inc();
  reg.counter("migr.migrations_aborted_in", {{"phase", phase_}}).inc();
  trace_instant(loop_.now(), "migration_aborted",
                "\"guest\":" + std::to_string(guest_id_) + ",\"phase\":\"" + phase_ + "\"");

  // Anomaly capture: the moment the wire history matters most. Flush the
  // trace ring to its configured file and snapshot the flight-recorder
  // window around the abort.
  (void)obs::Tracer::global().flush();
  auto& rec = obs::FlightRecorder::global();
  if (rec.enabled()) {
    rec.trigger_dump(loop_.now(), "migration_abort",
                     "\"guest\":" + std::to_string(guest_id_) + ",\"phase\":\"" + phase_ +
                         "\",\"src_host\":" + std::to_string(src_rt_->host()) +
                         ",\"dest_host\":" + std::to_string(dest_rt_->host()));
  }
  if (done_) done_(report_);
}

GuestContext* MigrationController::partner_guest(GuestId id) const {
  MigrRdmaRuntime* rt = directory_.runtime_of(id);
  return rt == nullptr ? nullptr : rt->find_guest(id);
}

Status resume_partners(const GuestDirectory& directory, const std::vector<GuestId>& partners,
                       GuestId guest) {
  Status first = Status::ok();
  for (GuestId pid : partners) {
    MigrRdmaRuntime* rt = directory.runtime_of(pid);
    GuestContext* partner = rt == nullptr ? nullptr : rt->find_guest(pid);
    if (partner == nullptr) continue;
    if (auto st = partner->partner_resume(guest); !st.is_ok() && first.is_ok()) first = st;
  }
  return first;
}

std::uint64_t MigrationController::effective_bytes_threshold() const {
  if (options_.dirty_bytes_threshold != 0) return options_.dirty_bytes_threshold;
  return static_cast<std::uint64_t>(options_.dirty_page_threshold) * proc::kPageSize;
}

void MigrationController::reset_throttle() {
  if (throttle_factor_ > 0 && options_.throttle) options_.throttle(0);
  throttle_factor_ = 0;
}

bool MigrationController::precopy_should_continue(std::uint64_t pending_bytes) {
  if (!estimator_->primed()) return true;
  if (rounds_done_ < options_.min_precopy_rounds) return true;

  // Predicted wall clock of the next round: dump walk, serialization at line
  // rate, restore on the destination. While it runs, the (possibly
  // throttled) guest re-dirties at the EWMA rate; the round converges only
  // if it drains more than the guest refills.
  const double link_bytes_per_sec = fabric_.config().link_gbps * 1e9 / 8.0;
  const double pages =
      static_cast<double>(pending_bytes) / static_cast<double>(proc::kPageSize);
  const double round_sec =
      static_cast<double>(pending_bytes) / link_bytes_per_sec +
      pages *
          static_cast<double>(options_.criu_costs.per_page_dump +
                              options_.criu_costs.per_page_restore) *
          1e-9 +
      static_cast<double>(options_.criu_costs.dump_base) * 1e-9;
  // The EWMA already measures the *throttled* guest (each ladder step shows
  // up in the next interval), so the rate is used as-is. Iterating is only
  // worth the brownout if the round shrinks the pending set by a real
  // margin — marginal shrinkage loses to the model's per-round overheads.
  const double next_pending = estimator_->bytes_per_sec() * round_sec;
  if (next_pending < static_cast<double>(pending_bytes) * options_.precopy_gain) {
    return true;
  }

  // Diverging. Step the auto-converge throttle if there is still headroom
  // (QEMU's auto-converge ladder); otherwise stop iterating — more rounds
  // only burn brownout without shrinking the stop-and-copy set.
  if (options_.throttle && throttle_factor_ < options_.autoconverge_max) {
    throttle_factor_ = std::min(options_.autoconverge_max,
                                throttle_factor_ + options_.autoconverge_step);
    report_.autoconverge_steps++;
    report_.throttle_factor = std::max(report_.throttle_factor, throttle_factor_);
    options_.throttle(throttle_factor_);
    obs::Registry::global().counter("migr.autoconverge_steps").inc();
    trace_instant(loop_.now(), "autoconverge",
                  "\"guest\":" + std::to_string(guest_id_) +
                      ",\"throttle\":" + std::to_string(throttle_factor_));
    MIGR_WARN() << "pre-copy diverging for guest " << guest_id_
                << "; auto-converge throttle -> " << throttle_factor_;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pre-copy
// ---------------------------------------------------------------------------

void MigrationController::phase_initial_dump() {
  phase_ = "pre_dump";
  auto dump = ckpt_->pre_dump();
  sim::DurationNs cost = dump.cost;
  // CRIU's page walk competes with the NIC for memory bandwidth: brownout
  // pressure on the source during the dump window (Kong et al. / Fig. 5).
  src_rt_->device().add_ctrl_pressure(dump.cost);
  if (options_.pre_setup) {
    // Step 1': pre-dump the RDMA state alongside the memory pre-dump.
    predump_rdma_bytes_ = plugin_.pre_dump(*guest_);
    cost += plugin_.take_cost();
  }
  Bytes payload = round_payload(dump, &predump_rdma_bytes_);
  trace_span(loop_.now(), cost, "pre_dump",
             "\"bytes\":" + std::to_string(payload.size()));
  // Rate interval covers the dump + transfer + partial restore: exactly the
  // stretch the guest spends re-dirtying what the full copy just captured.
  if (estimator_) estimator_->begin_interval(loop_.now());

  loop_.schedule_in(cost, [this, payload = std::move(payload)]() mutable {
    transfer_to_dest(std::move(payload),
                     [this](Bytes p) { phase_partial_restore(std::move(p)); });
  });
}

void MigrationController::transfer_to_dest(Bytes payload, std::function<void(Bytes)> cb) {
  // The mux chunks the payload over its streams with per-chunk deadlines,
  // bounded retries and doubling backoff, and delivers it whole on full
  // receipt. Chunk retry exhaustion (partition, sustained ctrl loss) aborts
  // the migration and rolls the source back.
  xfer_cb_ = std::move(cb);
  mux_->set_trace_context(trace_ctx());
  mux_->open(
      [this](Bytes&& p) {
        sync_mux_stats();
        auto continuation = std::move(xfer_cb_);
        xfer_cb_ = nullptr;
        if (continuation) continuation(std::move(p));
      },
      [this](const common::Status& st) { abort(st); });
  mux_->send(std::move(payload));
}

void MigrationController::sync_mux_stats() {
  const XferStats& xs = mux_->stats();
  report_.xfer_streams = static_cast<std::uint32_t>(xs.streams.size());
  report_.xfer_stream_stats = xs.streams;
  report_.xfer_bytes_attempted = xs.attempted();
  report_.xfer_bytes_delivered = xs.delivered();
  report_.xfer_bytes_lost = xs.lost();
  report_.xfer_chunks = xs.chunks();
  report_.transfer_retries = xs.retries();
}

common::Bytes MigrationController::round_payload(const criu::Checkpointer::Dump& dump,
                                                  const Bytes* rdma) {
  const Bytes encoded = page_enc_ ? encode_pages(dump.pages) : Bytes{};
  const std::size_t pages_size = page_enc_ ? encoded.size() : dump.pages.serialized_size();
  ByteWriter w(4 + dump.image.serialized_size() + 4 + pages_size +
               (rdma != nullptr ? 4 + rdma->size() : 0));
  w.section(dump.image);
  if (page_enc_) {
    w.bytes(encoded);
  } else {
    w.section(dump.pages);
  }
  if (rdma != nullptr) w.bytes(*rdma);
  return std::move(w).take();
}

common::Bytes MigrationController::encode_pages(const criu::PageSet& pages) {
  criu::PageDeltaStats batch;
  Bytes enc = page_enc_->encode(pages, &batch);
  const criu::PageDeltaStats& total = page_enc_->stats();
  report_.xfer_pages_zero = total.pages_zero;
  report_.xfer_pages_same = total.pages_same;
  report_.xfer_pages_delta = total.pages_delta;
  report_.xfer_pages_full = total.pages_full;
  report_.xfer_bytes_raw = total.bytes_raw;
  report_.xfer_bytes_shipped = total.bytes_shipped;
  report_.xfer_bytes_suppressed = total.bytes_suppressed;
  auto& reg = obs::Registry::global();
  reg.counter("migr.xfer.pages_zero").inc(batch.pages_zero);
  reg.counter("migr.xfer.pages_same").inc(batch.pages_same);
  reg.counter("migr.xfer.pages_delta").inc(batch.pages_delta);
  reg.counter("migr.xfer.bytes_suppressed").inc(batch.bytes_suppressed);
  return enc;
}

common::Result<criu::PageSet> MigrationController::decode_pages(
    std::span<const std::uint8_t> data) {
  if (!page_dec_) return criu::PageSet::parse(data);
  return page_dec_->decode(data);
}

void MigrationController::phase_partial_restore(Bytes payload) {
  phase_ = "partial_restore";
  // Every section is a view into `payload`, which outlives its use here.
  ByteReader r{payload};
  auto mem_bytes = r.view();
  auto page_bytes = r.view();
  auto rdma_bytes = r.view();
  if (!mem_bytes.is_ok() || !page_bytes.is_ok() || !rdma_bytes.is_ok()) {
    return abort(common::err(Errc::invalid_argument, "corrupt initial payload"));
  }
  auto mem_image = criu::MemoryImage::parse(mem_bytes.value());
  auto pages = decode_pages(page_bytes.value());
  if (!mem_image.is_ok() || !pages.is_ok()) {
    return abort(common::err(Errc::invalid_argument, "corrupt memory image"));
  }

  sim::DurationNs cost = 0;

  if (options_.pre_setup) {
    // Step 2' part 1: map RDMA memory structures (on-chip memory) before
    // the memory restoration starts (§3.2).
    if (auto st = plugin_.premap(rdma_bytes.value(), *dest_rt_, *dest_proc_); !st.is_ok()) {
      return abort(st);
    }
    cost += plugin_.take_cost();
    pinned_ = Plugin::pinned_vma_starts(mem_image.value(), plugin_.predump_image());
  }

  auto begin_rep = restorer_->begin(mem_image.value(), pinned_);
  if (!begin_rep.is_ok()) return abort(begin_rep.status());
  cost += begin_rep->cost;
  auto pages_rep = restorer_->apply_pages(pages.value());
  if (!pages_rep.is_ok()) return abort(pages_rep.status());
  cost += pages_rep->cost;
  // Counted here — after the image applied — not at serialize time, so
  // aborted transfers never inflate the pre-copy byte accounting.
  report_.precopy_bytes += payload.size();

  if (options_.pre_setup) {
    // Step 2' part 2: full RDMA pre-setup + partner QP pre-establishment.
    if (auto st = plugin_.pre_setup(rdma_bytes.value(), *dest_rt_, *dest_proc_);
        !st.is_ok()) {
      return abort(st);
    }
    report_.presetup_restore_rdma += plugin_.take_cost();
    if (auto st = presetup_partners(); !st.is_ok()) return abort(st);
    // Connecting the staged QPs (INIT/RTR/RTS per QP) is the bulk of the
    // RestoreRDMA time pre-setup moves out of the blackout window.
    report_.presetup_restore_rdma += plugin_.staged().take_ctrl_cost();
    cost += report_.presetup_restore_rdma;
    // Nested inside the partial-restore window; its duration is exactly the
    // report's presetup_restore_rdma (brownout, not blackout).
    trace_span(loop_.now(), report_.presetup_restore_rdma, "rdma_pre_setup");
  }
  trace_span(loop_.now(), cost, "partial_restore");

  loop_.schedule_in(cost, [this] { phase_precopy_round(); });
}

Status MigrationController::presetup_partners() {
  // The source notifies every partner (dest address + the partner-side
  // physical QPNs); each partner pre-establishes replacement QPs that share
  // the old CQ, and exchanges QPNs with the destination (§3.2).
  partners_.clear();
  for (const auto& q : plugin_.predump_image().qps) {
    if (!q.connected || !q.peer_is_migrrdma || q.peer_guest == 0) continue;
    if (q.peer_guest == guest_id_) continue;  // self-connection
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
    // Partner-side control-path time: brownout on the partner, not
    // blackout anywhere (§3.2 "communication pre-setup on the partner side
    // does not incur blackout time").
    (void)partner->raw().take_ctrl_cost();
    if (std::find(partners_.begin(), partners_.end(), q.peer_guest) == partners_.end()) {
      partners_.push_back(q.peer_guest);
    }
  }
  return Status::ok();
}

void MigrationController::phase_precopy_round() {
  phase_ = "precopy";
  if (options_.mode == MigrationMode::postcopy) {
    // Single pre-copy pass: whatever is still dirty stays behind and is
    // fetched after the destination resumes.
    report_.stop_reason = "postcopy";
    return phase_stop_and_copy();
  }
  if (estimator_ && estimator_->open()) {
    (void)estimator_->end_interval(loop_.now());
  }
  const std::uint64_t pending_bytes =
      static_cast<std::uint64_t>(ckpt_->pending_dirty()) * proc::kPageSize;
  if (rounds_done_ >= options_.max_precopy_rounds) {
    report_.stop_reason = "max_rounds";
    return phase_stop_and_copy();
  }
  if (pending_bytes <= effective_bytes_threshold()) {
    report_.stop_reason = "bytes_threshold";
    return phase_stop_and_copy();
  }
  if (estimator_ && !precopy_should_continue(pending_bytes)) {
    report_.stop_reason = "diverging";
    return phase_stop_and_copy();
  }
  auto dump = ckpt_->pre_dump();
  src_rt_->device().add_ctrl_pressure(dump.cost);
  if (estimator_) estimator_->begin_interval(loop_.now());
  Bytes payload = round_payload(dump, nullptr);
  trace_span(loop_.now(), dump.cost, "precopy_round",
             "\"round\":" + std::to_string(rounds_done_ + 1) +
                 ",\"bytes\":" + std::to_string(payload.size()));

  loop_.schedule_in(dump.cost, [this, payload = std::move(payload)]() mutable {
    transfer_to_dest(std::move(payload), [this](Bytes p) {
      ByteReader r{p};
      auto mem_bytes = r.view();
      auto page_bytes = r.view();
      if (!mem_bytes.is_ok() || !page_bytes.is_ok()) {
        return abort(common::err(Errc::invalid_argument, "corrupt round payload"));
      }
      auto mem_image = criu::MemoryImage::parse(mem_bytes.value());
      auto pages = decode_pages(page_bytes.value());
      if (!mem_image.is_ok() || !pages.is_ok()) {
        return abort(common::err(Errc::invalid_argument, "corrupt round image"));
      }
      sim::DurationNs cost = 0;
      auto up = restorer_->update(mem_image.value(), pinned_);
      if (!up.is_ok()) return abort(up.status());
      cost += up->cost;
      auto ap = restorer_->apply_pages(pages.value());
      if (!ap.is_ok()) return abort(ap.status());
      cost += ap->cost;
      // The round exists only once its image is applied on the destination:
      // counting (and the SLI iteration tag) moves past every abort-able
      // step, so an abort mid-transfer cannot inflate precopy_rounds or
      // leave an SLI window tagged for a round that never landed.
      rounds_done_++;
      report_.precopy_rounds++;
      report_.precopy_bytes += p.size();
      obs::SliHub::global().on_precopy_iteration(guest_id_, loop_.now(), rounds_done_);
      loop_.schedule_in(cost, [this] { phase_precopy_round(); });
    });
  });
}

// ---------------------------------------------------------------------------
// Stop-and-copy
// ---------------------------------------------------------------------------

void MigrationController::phase_stop_and_copy() {
  phase_ = "wait_before_stop";
  if (estimator_) {
    if (estimator_->open()) (void)estimator_->end_interval(loop_.now());
    report_.dirty_pages_per_sec = estimator_->pages_per_sec();
    obs::Registry::global()
        .gauge("migr.dirty_pages_per_sec", {{"guest", std::to_string(guest_id_)}})
        .set(report_.dirty_pages_per_sec);
  }
  report_.suspend_at = loop_.now();
  trace_instant(report_.suspend_at, "suspend",
                "\"partners\":" + std::to_string(partners_.size()));
  if (partners_.empty()) partners_ = guest_->connected_peers();

  pending_wbs_ = 1 + static_cast<int>(partners_.size());
  wbs_completed_ = false;

  guest_->set_wbs_done_callback([this] { on_wbs_one(); });
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner != nullptr) partner->set_wbs_done_callback([this] { on_wbs_one(); });
  }

  // §3.4: the upper bound on wait-before-stop for buggy networks.
  wbs_timeout_handle_ = loop_.schedule_in(options_.wbs_timeout, [this] {
    if (wbs_completed_) return;
    if (options_.abort_on_wbs_timeout) {
      return abort(common::err(Errc::timeout,
                               "wait-before-stop timed out (network too degraded)"));
    }
    MIGR_WARN() << "wait-before-stop timed out; forcing stop-and-copy";
    report_.wbs_timed_out = true;
    guest_->force_wbs_timeout();
    for (GuestId pid : partners_) {
      GuestContext* partner = partner_guest(pid);
      if (partner != nullptr && !partner->wbs_done()) partner->force_wbs_timeout();
    }
  });

  // Step 3: raise the suspension flags. The partner notification travels
  // the ctrl plane; its latency is microseconds and is folded into the
  // suspension event.
  guest_->suspend(SuspendScope{true, 0});
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner != nullptr) partner->suspend(SuspendScope{false, guest_id_});
  }
}

void MigrationController::on_wbs_one() {
  if (wbs_completed_) return;
  if (--pending_wbs_ > 0) return;
  wbs_completed_ = true;
  wbs_timeout_handle_.cancel();
  on_wbs_complete();
}

void MigrationController::on_wbs_complete() {
  report_.wbs_elapsed = loop_.now() - report_.suspend_at;
  trace_span(report_.suspend_at, report_.wbs_elapsed, "wait_before_stop",
             report_.wbs_timed_out ? "\"timed_out\":true" : "\"timed_out\":false");
  guest_->set_wbs_done_callback(nullptr);
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner != nullptr) partner->set_wbs_done_callback(nullptr);
  }
  phase_final_transfer();
}

void MigrationController::phase_final_transfer() {
  phase_ = "final_transfer";
  // Step 4: freeze the service. The blackout waterfall starts here.
  report_.freeze_at = loop_.now();
  wf_cursor_ = report_.freeze_at;
  obs::SliHub::global().on_freeze(guest_id_, report_.freeze_at);
  trace_instant(report_.freeze_at, "freeze");
  src_proc_->freeze();

  const bool postcopy = options_.mode == MigrationMode::postcopy;
  criu::MemoryImage image;
  criu::PageSet pages;
  if (postcopy) {
    // Lazy final dump: the VMA table plus the *addresses* of the pages left
    // behind — no page contents, so the in-blackout dump and transfer cost
    // none of the per-page time. The second payload field carries the
    // missing list where pre-copy puts the final PageSet.
    auto dmem = ckpt_->final_dump_lazy();
    if (!dmem.is_ok()) return abort(dmem.status());
    report_.dump_others = dmem->cost;
    postcopy_missing_ = std::move(dmem->missing);
    image = std::move(dmem->image);
  } else {
    auto dmem = ckpt_->final_dump();
    if (!dmem.is_ok()) return abort(dmem.status());
    report_.dump_others = dmem->cost;
    image = std::move(dmem->image);
    pages = std::move(dmem->pages);
  }

  sim::DurationNs rdma_dump_cost = 0;
  if (!options_.pre_setup) {
    // Baseline (§4): the one and only RDMA dump happens inside the
    // blackout window.
    predump_rdma_bytes_ = plugin_.pre_dump(*guest_);
    rdma_dump_cost += plugin_.take_cost();
  }
  final_rdma_bytes_ = plugin_.final_dump(*guest_);
  rdma_dump_cost += plugin_.take_cost();
  report_.dump_rdma = rdma_dump_cost;

  const std::size_t pages_size =
      postcopy ? 8 + 8 * postcopy_missing_.size() : pages.serialized_size();
  ByteWriter w(4 + image.serialized_size() + 4 + pages_size + 4 +
               predump_rdma_bytes_.size() + 4 + final_rdma_bytes_.size());
  w.section(image);
  if (postcopy) {
    w.u32(static_cast<std::uint32_t>(pages_size));
    w.u64(postcopy_missing_.size());
    for (proc::VirtAddr a : postcopy_missing_) w.u64(a);
  } else {
    w.section(pages);
  }
  w.bytes(predump_rdma_bytes_);
  w.bytes(final_rdma_bytes_);
  Bytes payload = std::move(w).take();
  report_.final_bytes = payload.size();

  // Blackout-component spans laid out back to back, durations identical to
  // the report fields (the dump costs elapse sequentially via schedule_in).
  trace_span(report_.freeze_at, report_.dump_others, "dump_others");
  trace_span(report_.freeze_at + report_.dump_others, report_.dump_rdma, "dump_rdma");
  push_waterfall("dump_others", report_.dump_others);
  push_waterfall("dump_rdma", report_.dump_rdma,
                 "\"bytes\":" + std::to_string(final_rdma_bytes_.size()));

  const sim::DurationNs dump_cost = report_.dump_others + rdma_dump_cost;
  cp_add(report_.freeze_at, report_.freeze_at + dump_cost, obs::EdgeClass::ckpt_dump,
         "final_dump");
  loop_.schedule_in(dump_cost, [this, payload = std::move(payload)]() mutable {
    const sim::TimeNs xfer_start = loop_.now();
    transfer_to_dest(std::move(payload), [this, xfer_start](Bytes p) {
      report_.transfer = loop_.now() - xfer_start;
      trace_span(xfer_start, report_.transfer, "transfer",
                 "\"bytes\":" + std::to_string(report_.final_bytes));
      push_waterfall("transfer", report_.transfer,
                     "\"bytes\":" + std::to_string(report_.final_bytes) +
                         ",\"retries\":" + std::to_string(report_.transfer_retries));
      phase_final_restore(std::move(p));
    });
  });
}

void MigrationController::phase_final_restore(Bytes payload) {
  phase_ = "final_restore";
  // Every section is a view into `payload`, which outlives its use here.
  ByteReader r{payload};
  auto mem_bytes = r.view();
  auto page_bytes = r.view();
  auto rdma_full_bytes = r.view();
  auto rdma_final_bytes = r.view();
  if (!mem_bytes.is_ok() || !page_bytes.is_ok() || !rdma_full_bytes.is_ok() ||
      !rdma_final_bytes.is_ok()) {
    return abort(common::err(Errc::invalid_argument, "corrupt final payload"));
  }
  auto mem_image = criu::MemoryImage::parse(mem_bytes.value());
  if (!mem_image.is_ok()) {
    return abort(common::err(Errc::invalid_argument, "corrupt final memory image"));
  }
  const bool postcopy = options_.mode == MigrationMode::postcopy;
  criu::PageSet pages;
  if (postcopy) {
    // The wire copy of the missing list is authoritative — the destination
    // must be able to mark its pages without trusting controller state.
    ByteReader mr{page_bytes.value()};
    auto n = mr.count<std::uint64_t>(8);
    if (!n.is_ok()) return abort(n.status());
    postcopy_missing_.clear();
    postcopy_missing_.reserve(n.value());
    for (std::uint64_t i = 0; i < n.value(); i++) {
      auto a = mr.u64();
      if (!a.is_ok()) return abort(a.status());
      postcopy_missing_.push_back(a.value());
    }
  } else {
    auto parsed = criu::PageSet::parse(page_bytes.value());
    if (!parsed.is_ok()) {
      return abort(common::err(Errc::invalid_argument, "corrupt final memory image"));
    }
    pages = std::move(parsed.value());
  }

  sim::DurationNs criu_cost = 0;
  auto up = restorer_->update(mem_image.value(), pinned_);
  if (!up.is_ok()) return abort(up.status());
  criu_cost += up->cost;
  if (!postcopy) {
    auto ap = restorer_->apply_pages(pages);
    if (!ap.is_ok()) return abort(ap.status());
    criu_cost += ap->cost;
  }
  auto fin = restorer_->finish();
  if (!fin.is_ok()) return abort(fin.status());
  criu_cost += fin->cost;
  report_.full_restore = criu_cost;

  sim::DurationNs rdma_cost = 0;
  if (!options_.pre_setup) {
    // Steps 2'/6' collapsed into the blackout: restore every RDMA resource
    // now that all memory has been restored (§4 baseline).
    if (auto st = plugin_.pre_setup(rdma_full_bytes.value(), *dest_rt_, *dest_proc_);
        !st.is_ok()) {
      return abort(st);
    }
    rdma_cost += plugin_.take_cost();
    if (auto st = presetup_partners(); !st.is_ok()) return abort(st);
    rdma_cost += plugin_.staged().take_ctrl_cost();
    rdma_cost += report_.presetup_restore_rdma;  // partner costs are in blackout here
    report_.presetup_restore_rdma = 0;
  }

  // Step 6': map the new RDMA resources into the restored process and apply
  // the virtualization fix-ups; step 7: replay. Releasing the source is the
  // commit point: from here on the guest's resources are being rewired onto
  // the destination and an in-place source resume is no longer possible.
  committed_ = true;
  auto owned = src_rt_->release_guest(guest_);
  if (owned == nullptr) return fail(common::err(Errc::internal, "guest ownership lost"));
  if (auto st = plugin_.full_restore(*guest_, rdma_final_bytes.value(), *dest_rt_);
      !st.is_ok()) {
    return fail(st);
  }
  dest_rt_->adopt_guest(std::move(owned));
  rdma_cost += plugin_.take_cost();
  report_.restore_rdma = rdma_cost;

  // Partners switch to the pre-established QPs (step 7 on the partner) and
  // re-post their RECVs there; their sends to the guest wait for its resume.
  for (GuestId pid : partners_) {
    GuestContext* partner = partner_guest(pid);
    if (partner == nullptr) continue;
    for (VQpn vqpn : partner->qps_to_peer(guest_id_)) {
      if (auto st = partner->partner_switch_qp(vqpn, guest_id_); !st.is_ok()) {
        return fail(st);
      }
    }
    partner->update_peer_location(guest_id_, dest_rt_->host());
    (void)partner->raw().take_ctrl_cost();
  }

  // Steps 6/6'/7 back to back: durations equal the report fields.
  const sim::TimeNs restore_start = loop_.now();
  trace_span(restore_start, report_.full_restore, "full_restore");
  trace_span(restore_start + report_.full_restore, report_.restore_rdma, "restore_rdma");
  trace_instant(restore_start + report_.full_restore, "map_resources");
  trace_instant(restore_start + report_.full_restore + report_.restore_rdma, "replay");
  push_waterfall("full_restore", report_.full_restore);
  push_waterfall("restore_rdma", report_.restore_rdma);
  cp_add(restore_start, restore_start + report_.full_restore, obs::EdgeClass::restore_apply,
         "full_restore");
  cp_add(restore_start + report_.full_restore,
         restore_start + report_.full_restore + report_.restore_rdma,
         obs::EdgeClass::qp_reestablish, "restore_rdma");

  if (postcopy) {
    // Stage the fault path before the service resumes: the moment partners
    // switch QPs, their NIC DMA can touch pages that are still on the
    // source. The source process stays alive (frozen) as the pager until
    // the pump drains.
    pump_ = std::make_unique<PostcopyPump>(loop_, fabric_, guest_id_, src_rt_->host(),
                                           dest_rt_->host(), *src_proc_, *dest_proc_,
                                           src_rt_->device(), *mux_, options_.postcopy);
    pump_->arm(std::move(postcopy_missing_));
    postcopy_missing_.clear();
  }

  loop_.schedule_in(criu_cost + rdma_cost, [this] { phase_resume(); });
}

void MigrationController::phase_resume() {
  phase_ = "resume";
  if (auto st = resume_partners(directory_, partners_, guest_id_); !st.is_ok()) return fail(st);
  sync_mux_stats();
  report_.resume_at = loop_.now();
  const bool postcopy = options_.mode == MigrationMode::postcopy;
  if (postcopy) {
    obs::SliHub::global().on_postcopy_resume(guest_id_, report_.resume_at);
  } else {
    obs::SliHub::global().on_resume(guest_id_, report_.resume_at);
    // Source reclaims everything it still holds. (Post-copy defers this to
    // the drain: the frozen source process is the pager until then.)
    src_proc_->kill();
    src_rt_->device().close(src_ctx_);
    src_ctx_ = nullptr;
  }
  reset_throttle();

  if (app_ != nullptr) app_->on_migrated(*dest_proc_);

  report_.ok = true;
  report_.end = loop_.now();
  trace_instant(report_.resume_at, "resume", "\"guest\":" + std::to_string(guest_id_));
  trace_span(report_.start, report_.resume_at - report_.start, "migration",
             "\"guest\":" + std::to_string(guest_id_));

  // Close the waterfall: a zero-duration thaw marker at the boundary, then
  // the parent span covering the whole attributed window.
  push_waterfall("thaw", 0);
  trace_blackout_span(report_.freeze_at, report_.service_blackout(), "blackout",
                      "\"guest\":" + std::to_string(guest_id_));
  resolve_critical_path();

  // Time-to-first-completion after resume: the first CQE the migrated guest
  // sees is the earliest externally visible proof the service is live again.
  // The controller object may be retired before it lands, so the watcher
  // captures values, not `this`.
  {
    sim::EventLoop* loop = &loop_;
    const GuestId gid = guest_id_;
    const sim::TimeNs resume_at = report_.resume_at;
    guest_->raw().watch_next_cqe([loop, gid, resume_at] {
      const sim::TimeNs now = loop->now();
      obs::Registry::global()
          .gauge("migr.first_completion_ns", {{"guest", std::to_string(gid)}})
          .set(static_cast<double>(now - resume_at));
      trace_blackout_span(resume_at, now - resume_at, "first_post_resume_completion",
                          "\"guest\":" + std::to_string(gid));
    });
  }

  // Publish the report's timing breakdown so benches (and --metrics) can
  // read it from the shared registry.
  auto& reg = obs::Registry::global();
  reg.counter("migr.migrations_completed").inc();
  reg.gauge("migr.report.dump_rdma_ns").set(static_cast<double>(report_.dump_rdma));
  reg.gauge("migr.report.dump_others_ns").set(static_cast<double>(report_.dump_others));
  reg.gauge("migr.report.transfer_ns").set(static_cast<double>(report_.transfer));
  reg.gauge("migr.report.restore_rdma_ns").set(static_cast<double>(report_.restore_rdma));
  reg.gauge("migr.report.full_restore_ns").set(static_cast<double>(report_.full_restore));
  reg.gauge("migr.report.presetup_restore_rdma_ns")
      .set(static_cast<double>(report_.presetup_restore_rdma));
  reg.gauge("migr.report.wbs_elapsed_ns").set(static_cast<double>(report_.wbs_elapsed));
  reg.gauge("migr.report.service_blackout_ns")
      .set(static_cast<double>(report_.service_blackout()));
  reg.gauge("migr.report.comm_blackout_ns").set(static_cast<double>(report_.comm_blackout()));
  reg.histogram("migr.blackout_ns").observe(report_.service_blackout());

  // Brownout section: windows up to resume are closed (on_resume forced the
  // boundary); recovery_ns stays -1 until the service settles post-report.
  report_.brownout = obs::SliHub::global().attribution(guest_id_);

  if (postcopy) {
    // The report (and done_) waits for the drain: the migration is not over
    // while the source still owns pages. Faults recorded from here on are
    // the post-copy brownout the blackout savings paid for.
    phase_ = "postcopy";
    pump_->start([this](const common::Status& st) { on_postcopy_drained(st); });
    return;
  }

  if (done_) done_(report_);
}

void MigrationController::on_postcopy_drained(const common::Status& st) {
  if (!st.is_ok()) {
    // Past the commit point with pages stranded on the source: there is no
    // rollback, only failure (the post-copy durability hazard).
    return fail(st);
  }
  const sim::TimeNs now = loop_.now();
  obs::SliHub::global().on_postcopy_drained(guest_id_, now);

  // Now the source really is done being the pager.
  src_proc_->kill();
  src_rt_->device().close(src_ctx_);
  src_ctx_ = nullptr;

  report_.postcopy = pump_->stats();
  sync_mux_stats();  // the prefetch/fault replies rode the mux too
  report_.end = now;
  trace_span(report_.resume_at, now - report_.resume_at, "postcopy_drain",
             "\"guest\":" + std::to_string(guest_id_) +
                 ",\"faults\":" + std::to_string(report_.postcopy.demand_faults) +
                 ",\"prefetched\":" + std::to_string(report_.postcopy.prefetched_pages));

  auto& reg = obs::Registry::global();
  reg.gauge("migr.report.postcopy_drain_ns")
      .set(static_cast<double>(report_.postcopy.drain_ns));
  reg.gauge("migr.report.postcopy_missing_pages")
      .set(static_cast<double>(report_.postcopy.missing_pages));

  report_.brownout = obs::SliHub::global().attribution(guest_id_);
  if (done_) done_(report_);
}

}  // namespace migr::migrlib
