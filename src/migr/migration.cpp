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

// Workflow spans (Fig. 2(b) steps) are emitted with explicit sim timestamps
// and durations taken from the same values that land in MigrationReport, so
// a trace is field-for-field consistent with the report.

namespace {
// PSNs of the replacement connections a migration establishes; the flight
// recorder's wire capture carries them.
constexpr rnic::Psn kPsnBase = 500'000;

// Adaptive pre-copy's convergence predictor.
constexpr int kMinPrecopyRounds = 1;  // rounds before the predictor may stop
// A round counts as converging only if it is predicted to shrink the
// pending dirty set below kPrecopyGain x current — asking for a real
// margin, not any shrink, keeps marginal rounds from burning brownout for
// nothing.
constexpr double kPrecopyGain = 0.7;
constexpr double kAutoconvergeStep = 0.3;  // throttle increment per diverging round
constexpr double kAutoconvergeMax = 0.9;   // hard cap on guest slowdown
}  // namespace

const char* migration_mode_name(MigrationMode m) noexcept {
  switch (m) {
    case MigrationMode::precopy: return "precopy";
    case MigrationMode::postcopy: return "postcopy";
  }
  return "?";
}

void MigrationReport::write_waterfall(common::Json& j) const {
  j.obj().key("mode").val(migration_mode_name(mode)).key("freeze_at_ns").val(freeze_at);
  j.key("resume_at_ns").val(resume_at).key("blackout_ns").val(service_blackout());
  j.key("aborted").val(aborted).key("slices");
  write_slices(j, waterfall);
  j.end();
}

std::string MigrationReport::waterfall_json() const {
  std::string out;
  common::Json j(out);
  write_waterfall(j);
  return out;
}

MigrationController::MigrationController(sim::EventLoop& loop, net::Fabric& fabric,
                                         GuestDirectory& directory, MigrationOptions options)
    : loop_(loop), fabric_(fabric), options_(options),
      move_(loop, fabric, directory, "migr", kPsnBase, options.criu_costs) {}

Status MigrationController::start(GuestId id, net::HostId dest_host,
                                  proc::SimProcess& dest_proc, MigratableApp* app,
                                  DoneCb done) {
  done_ = std::move(done);
  app_ = app;
  XferOptions xo;
  xo.streams = options_.xfer_streams;
  xo.stream_gbps = options_.xfer_stream_gbps;
  xo.chunk_bytes = options_.xfer_chunk_bytes;
  xo.chunk_timeout = options_.transfer_timeout;
  xo.max_chunk_retries = options_.max_transfer_retries;
  xo.retry_backoff = options_.transfer_retry_backoff;
  xo.max_backoff = kMaxTransferBackoff;
  MIGR_RETURN_IF_ERROR(move_.open(id, dest_host, dest_proc, "migr.xfer", xo));
  src_ctx_ = &move_.guest().raw();
  if (options_.suppress_pages) {
    page_enc_ = std::make_unique<criu::PageDeltaEncoder>();
    page_dec_ = std::make_unique<criu::PageDeltaDecoder>();
  }

  report_ = MigrationReport{};
  report_.start = loop_.now();
  report_.mode = options_.mode;
  if (options_.adaptive_precopy && options_.mode == MigrationMode::precopy) {
    // Distinct sample sets per guest, still seeded.
    estimator_ = std::make_unique<criu::DirtyRateEstimator>(
        move_.src_proc(), criu::DirtyRateEstimator::kDefaultSeed + id);
  }
  // Brownout attribution: iteration 0 covers the initial full copy +
  // partial restore; phase_precopy_round advances it per dirty round.
  obs::SliHub::global().on_migration_start(id, report_.start);
  obs::Registry::global().counter("migr.migrations_started").inc();
  move_.cp().set_enabled(options_.critical_path);
  move_.trace_root(report_.start, "migration_start",
                   "\"guest\":" + std::to_string(id) +
                       ",\"dest_host\":" + std::to_string(dest_host));
  loop_.schedule_in(0, [this] {
    obs::CtxScope scope(obs::Tracer::global(), move_.trace_ctx());
    phase_initial_dump();
  });
  return Status::ok();
}

void MigrationController::fail(const Status& st) {
  const GuestId id = move_.id();
  MIGR_ERROR() << "migration of guest " << id << " failed: " << st.to_string();
  // Timer hygiene: a stale WBS or transfer timer must never fire into a
  // completed, failed, or rolled-back migration.
  wbs_timeout_handle_.cancel();
  reset_throttle();
  move_.mux().cancel();
  sync_mux_stats();
  // Past the commit point partners may have switched QPs and be holding
  // their sends for the guest's resume, which will never come: release them.
  if (move_.committed()) (void)move_.release_partners();
  report_.ok = false;
  report_.error = st.to_string();
  report_.end = loop_.now();
  obs::SliHub::global().on_migration_end(id, report_.end);
  report_.brownout = obs::SliHub::global().attribution(id);
  obs::Registry::global().counter("migr.migrations_failed").inc();
  move_.instant(loop_.now(), "migration_failed", "\"guest\":" + std::to_string(id));
  // A failed run never reaches a tool's normal trace write; flush so the
  // partial trace is still loadable.
  (void)obs::Tracer::global().flush();
  if (done_) done_(report_);
}

void MigrationController::abort(const Status& st) {
  if (move_.committed()) return fail(st);  // source released: nothing to roll back to
  const GuestId id = move_.id();
  MIGR_WARN() << "aborting migration of guest " << id << " during " << phase_ << ": "
              << st.to_string();
  wbs_timeout_handle_.cancel();
  reset_throttle();
  xfer_cb_ = nullptr;
  // Drop in-flight chunks and the queue; the stats survive so the report
  // still accounts what the aborted run attempted (lost = attempted -
  // delivered covers the chunks the abort stranded).
  move_.mux().cancel();
  sync_mux_stats();
  move_.abort();

  report_.ok = false;
  report_.aborted = true;
  report_.abort_reason = st.to_string();
  report_.abort_phase = phase_;
  report_.error = st.to_string();
  report_.end = loop_.now();
  report_.source_resumed = !move_.src_proc().frozen() && !move_.guest().suspended();

  // Blackout bookkeeping for an abort after the freeze: the source just
  // thawed, so the service blackout ends NOW (on the source, not the
  // destination). Close the waterfall with an attribution slice covering
  // whatever ran between the last completed phase and the rollback, keeping
  // the sum-equals-blackout invariant on aborted reports too.
  if (report_.freeze_at != 0 && report_.resume_at == 0) {
    report_.resume_at = loop_.now();
    move_.push_slice(std::string{"aborted_in_"} + phase_, loop_.now() - move_.slice_cursor(),
                     obs::EdgeClass::slack, "\"guest\":" + std::to_string(id));
    GuestMove::blackout_span(report_.freeze_at, report_.service_blackout(), "blackout",
                             "\"guest\":" + std::to_string(id) + ",\"aborted\":true");
    // Whatever the recorder saw before the rollback still attributes the
    // freeze-to-thaw window; the un-attributed remainder resolves to slack.
    move_.resolve_cp(report_.critical_path, report_.freeze_at, report_.resume_at);
  }

  // Rolled back: the source service is live again, so SLI-wise the guest
  // goes back to idle (no recovery phase — the service never moved).
  obs::SliHub::global().on_migration_end(id, report_.end);
  report_.brownout = obs::SliHub::global().attribution(id);

  auto& reg = obs::Registry::global();
  reg.counter("migr.migrations_aborted").inc();
  reg.counter("migr.migrations_aborted_in", {{"phase", phase_}}).inc();
  move_.instant(loop_.now(), "migration_aborted",
                "\"guest\":" + std::to_string(id) + ",\"phase\":\"" + phase_ + "\"");

  // Anomaly capture: the moment the wire history matters most. Flush the
  // trace ring to its configured file and snapshot the flight-recorder
  // window around the abort.
  (void)obs::Tracer::global().flush();
  auto& rec = obs::FlightRecorder::global();
  if (rec.enabled()) {
    rec.trigger_dump(loop_.now(), "migration_abort",
                     "\"guest\":" + std::to_string(id) + ",\"phase\":\"" + phase_ +
                         "\",\"src_host\":" + std::to_string(move_.src_rt().host()) +
                         ",\"dest_host\":" + std::to_string(move_.dest_rt().host()));
  }
  if (done_) done_(report_);
}

void MigrationController::reset_throttle() {
  if (throttle_factor_ > 0 && options_.throttle) options_.throttle(0);
  throttle_factor_ = 0;
}

bool MigrationController::precopy_should_continue(std::uint64_t pending_bytes) {
  if (!estimator_->primed()) return true;
  if (rounds_done_ < kMinPrecopyRounds) return true;

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
  if (next_pending < static_cast<double>(pending_bytes) * kPrecopyGain) {
    return true;
  }

  // Diverging. Step the auto-converge throttle if there is still headroom
  // (QEMU's auto-converge ladder); otherwise stop iterating — more rounds
  // only burn brownout without shrinking the stop-and-copy set.
  if (options_.throttle && throttle_factor_ < kAutoconvergeMax) {
    throttle_factor_ = std::min(kAutoconvergeMax, throttle_factor_ + kAutoconvergeStep);
    report_.autoconverge_steps++;
    report_.throttle_factor = std::max(report_.throttle_factor, throttle_factor_);
    options_.throttle(throttle_factor_);
    obs::Registry::global().counter("migr.autoconverge_steps").inc();
    move_.instant(loop_.now(), "autoconverge",
                  "\"guest\":" + std::to_string(move_.id()) +
                      ",\"throttle\":" + std::to_string(throttle_factor_));
    MIGR_WARN() << "pre-copy diverging for guest " << move_.id()
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
  auto dump = move_.ckpt().pre_dump();
  sim::DurationNs cost = dump.cost;
  // CRIU's page walk competes with the NIC for memory bandwidth: brownout
  // pressure on the source during the dump window (Kong et al. / Fig. 5).
  move_.src_rt().device().add_ctrl_pressure(dump.cost);
  if (options_.pre_setup) {
    // Step 1': pre-dump the RDMA state alongside the memory pre-dump.
    predump_rdma_bytes_ = move_.plugin().pre_dump(move_.guest());
    cost += move_.plugin().take_cost();
  }
  Bytes payload = round_payload(dump, &predump_rdma_bytes_);
  move_.span(loop_.now(), cost, "pre_dump", "\"bytes\":" + std::to_string(payload.size()));
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
  move_.mux().open(
      [this](Bytes&& p) {
        sync_mux_stats();
        auto continuation = std::move(xfer_cb_);
        xfer_cb_ = nullptr;
        if (continuation) continuation(std::move(p));
      },
      [this](const common::Status& st) { abort(st); });
  move_.mux().send(std::move(payload));
}

void MigrationController::sync_mux_stats() {
  const XferStats& xs = move_.mux().stats();
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

common::Result<criu::PageSet> MigrationController::decode_pages(Section data) {
  if (!page_dec_) return criu::PageSet::parse(data);
  return page_dec_->decode(data);
}

void MigrationController::phase_partial_restore(Bytes payload) {
  phase_ = "partial_restore";
  // Every section is a view into `payload`, which outlives its use here.
  auto sections = read_sections<3>(payload);
  if (!sections.is_ok()) return abort(sections.status());
  const auto& [mem_bytes, page_bytes, rdma_bytes] = sections.value();
  auto mem_image = criu::MemoryImage::parse(mem_bytes);
  auto pages = decode_pages(page_bytes);
  if (!mem_image.is_ok() || !pages.is_ok()) {
    return abort(common::err(Errc::invalid_argument, "corrupt memory image"));
  }
  auto staged = move_.stage(mem_image.value(), pages.value(),
                            options_.pre_setup ? &rdma_bytes : nullptr);
  if (!staged.is_ok()) return abort(staged.status());
  sim::DurationNs cost = staged.value();
  // Counted here — after the image applied — not at serialize time, so
  // aborted transfers never inflate the pre-copy byte accounting.
  report_.precopy_bytes += payload.size();

  if (options_.pre_setup) {
    // Step 2' part 2: full RDMA pre-setup + partner QP pre-establishment.
    auto rdma = move_.setup_rdma(rdma_bytes);
    if (!rdma.is_ok()) return abort(rdma.status());
    report_.presetup_restore_rdma += rdma.value();
    cost += report_.presetup_restore_rdma;
    // Nested inside the partial-restore window; its duration is exactly the
    // report's presetup_restore_rdma (brownout, not blackout).
    move_.span(loop_.now(), report_.presetup_restore_rdma, "rdma_pre_setup");
  }
  move_.span(loop_.now(), cost, "partial_restore");

  loop_.schedule_in(cost, [this] { phase_precopy_round(); });
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
  const std::size_t pending_pages = move_.ckpt().pending_dirty();
  const std::uint64_t pending_bytes = static_cast<std::uint64_t>(pending_pages) * proc::kPageSize;
  if (rounds_done_ >= options_.max_precopy_rounds) {
    report_.stop_reason = "max_rounds";
    return phase_stop_and_copy();
  }
  if (pending_pages <= options_.dirty_page_threshold) {
    report_.stop_reason = "bytes_threshold";
    return phase_stop_and_copy();
  }
  if (estimator_ && !precopy_should_continue(pending_bytes)) {
    report_.stop_reason = "diverging";
    return phase_stop_and_copy();
  }
  auto dump = move_.ckpt().pre_dump();
  move_.src_rt().device().add_ctrl_pressure(dump.cost);
  if (estimator_) estimator_->begin_interval(loop_.now());
  Bytes payload = round_payload(dump, nullptr);
  move_.span(loop_.now(), dump.cost, "precopy_round",
             "\"round\":" + std::to_string(rounds_done_ + 1) +
                 ",\"bytes\":" + std::to_string(payload.size()));

  loop_.schedule_in(dump.cost, [this, payload = std::move(payload)]() mutable {
    transfer_to_dest(std::move(payload), [this](Bytes p) {
      auto sections = read_sections<2>(p);
      if (!sections.is_ok()) return abort(sections.status());
      auto mem_image = criu::MemoryImage::parse(sections.value()[0]);
      auto pages = decode_pages(sections.value()[1]);
      if (!mem_image.is_ok() || !pages.is_ok()) {
        return abort(common::err(Errc::invalid_argument, "corrupt round image"));
      }
      auto cost = move_.update(mem_image.value(), pages.value());
      if (!cost.is_ok()) return abort(cost.status());
      // The round exists only once its image is applied on the destination:
      // counting (and the SLI iteration tag) moves past every abort-able
      // step, so an abort mid-transfer cannot inflate precopy_rounds or
      // leave an SLI window tagged for a round that never landed.
      rounds_done_++;
      report_.precopy_rounds++;
      report_.precopy_bytes += p.size();
      obs::SliHub::global().on_precopy_iteration(move_.id(), loop_.now(), rounds_done_);
      loop_.schedule_in(cost.value(), [this] { phase_precopy_round(); });
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
        .gauge("migr.dirty_pages_per_sec", {{"guest", std::to_string(move_.id())}})
        .set(report_.dirty_pages_per_sec);
  }
  report_.suspend_at = loop_.now();
  move_.instant(report_.suspend_at, "suspend",
                "\"partners\":" + std::to_string(move_.partners().size()));
  move_.fall_back_to_peers();

  pending_wbs_ = 1 + static_cast<int>(move_.partners().size());
  wbs_completed_ = false;
  move_.guest().set_wbs_done_callback([this] { on_wbs_one(); });

  // §3.4: the upper bound on wait-before-stop for buggy networks.
  wbs_timeout_handle_ = loop_.schedule_in(options_.wbs_timeout, [this] {
    if (wbs_completed_) return;
    if (options_.abort_on_wbs_timeout) {
      return abort(common::err(Errc::timeout,
                               "wait-before-stop timed out (network too degraded)"));
    }
    MIGR_WARN() << "wait-before-stop timed out; forcing stop-and-copy";
    report_.wbs_timed_out = true;
    move_.guest().force_wbs_timeout();
    move_.force_partner_wbs();
  });

  // Step 3: raise the suspension flags. The partner notification travels
  // the ctrl plane; its latency is microseconds and is folded into the
  // suspension event.
  move_.guest().suspend(SuspendScope{true, 0});
  move_.suspend_partners([this] { on_wbs_one(); }, /*harvest=*/false);
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
  move_.span(report_.suspend_at, report_.wbs_elapsed, "wait_before_stop",
             report_.wbs_timed_out ? "\"timed_out\":true" : "\"timed_out\":false");
  move_.clear_wbs_callbacks();
  phase_final_transfer();
}

void MigrationController::phase_final_transfer() {
  phase_ = "final_transfer";
  // Step 4: freeze the service. The blackout waterfall starts here.
  report_.freeze_at = loop_.now();
  move_.open_slices(report_.waterfall, report_.freeze_at);
  obs::SliHub::global().on_freeze(move_.id(), report_.freeze_at);
  move_.instant(report_.freeze_at, "freeze");
  move_.src_proc().freeze();

  const bool postcopy = options_.mode == MigrationMode::postcopy;
  criu::MemoryImage image;
  criu::PageSet pages;
  if (postcopy) {
    // Lazy final dump: the VMA table plus the *addresses* of the pages left
    // behind — no page contents, so the in-blackout dump and transfer cost
    // none of the per-page time. The second payload field carries the
    // missing list where pre-copy puts the final PageSet.
    auto dmem = move_.ckpt().final_dump_lazy();
    if (!dmem.is_ok()) return abort(dmem.status());
    report_.dump_others = dmem->cost;
    postcopy_missing_ = std::move(dmem->missing);
    image = std::move(dmem->image);
  } else {
    auto dmem = move_.ckpt().final_dump();
    if (!dmem.is_ok()) return abort(dmem.status());
    report_.dump_others = dmem->cost;
    image = std::move(dmem->image);
    pages = std::move(dmem->pages);
  }

  sim::DurationNs rdma_dump_cost = 0;
  if (!options_.pre_setup) {
    // Baseline (§4): the one and only RDMA dump happens inside the
    // blackout window.
    predump_rdma_bytes_ = move_.plugin().pre_dump(move_.guest());
    rdma_dump_cost += move_.plugin().take_cost();
  }
  final_rdma_bytes_ = move_.plugin().final_dump(move_.guest());
  rdma_dump_cost += move_.plugin().take_cost();
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

  // The blackout steps tile back to back from the freeze; durations are the
  // report fields (the dump costs elapse sequentially via schedule_in).
  move_.push_slice("dump_others", report_.dump_others, obs::EdgeClass::ckpt_dump);
  move_.push_slice("dump_rdma", report_.dump_rdma, obs::EdgeClass::ckpt_dump,
                   "\"bytes\":" + std::to_string(final_rdma_bytes_.size()));

  const sim::DurationNs dump_cost = report_.dump_others + rdma_dump_cost;
  loop_.schedule_in(dump_cost, [this, payload = std::move(payload)]() mutable {
    const sim::TimeNs xfer_start = loop_.now();
    transfer_to_dest(std::move(payload), [this, xfer_start](Bytes p) {
      report_.transfer = loop_.now() - xfer_start;
      // The mux's chunk intervals explain the transfer's time.
      move_.push_slice("transfer", report_.transfer, obs::EdgeClass::slack,
                       "\"bytes\":" + std::to_string(report_.final_bytes) +
                           ",\"retries\":" + std::to_string(report_.transfer_retries));
      phase_final_restore(std::move(p));
    });
  });
}

void MigrationController::phase_final_restore(Bytes payload) {
  phase_ = "final_restore";
  // Every section is a view into `payload`, which outlives its use here.
  auto sections = read_sections<4>(payload);
  if (!sections.is_ok()) return abort(sections.status());
  const auto& [mem_bytes, page_bytes, rdma_full_bytes, rdma_final_bytes] = sections.value();
  auto mem_image = criu::MemoryImage::parse(mem_bytes);
  if (!mem_image.is_ok()) {
    return abort(common::err(Errc::invalid_argument, "corrupt final memory image"));
  }
  const bool postcopy = options_.mode == MigrationMode::postcopy;
  criu::PageSet pages;
  if (postcopy) {
    // The wire copy of the missing list is authoritative — the destination
    // must be able to mark its pages without trusting controller state.
    ByteReader mr{page_bytes};
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
    auto parsed = criu::PageSet::parse(page_bytes);
    if (!parsed.is_ok()) {
      return abort(common::err(Errc::invalid_argument, "corrupt final memory image"));
    }
    pages = std::move(parsed.value());
  }

  auto up = move_.update(mem_image.value(), pages);
  if (!up.is_ok()) return abort(up.status());
  auto fin = move_.restorer().finish();
  if (!fin.is_ok()) return abort(fin.status());
  report_.full_restore = up.value() + fin->cost;

  sim::DurationNs rdma_cost = 0;
  if (!options_.pre_setup) {
    // Steps 2'/6' collapsed into the blackout: restore every RDMA resource
    // now that all memory has been restored (§4 baseline).
    auto setup = move_.setup_rdma(rdma_full_bytes);
    if (!setup.is_ok()) return abort(setup.status());
    rdma_cost += setup.value();
  }
  auto committed = move_.commit(rdma_final_bytes);
  if (!committed.is_ok()) return fail(committed.status());
  rdma_cost += committed.value();
  report_.restore_rdma = rdma_cost;

  // Steps 6/6'/7 back to back: durations equal the report fields.
  const sim::TimeNs restore_start = loop_.now();
  move_.instant(restore_start + report_.full_restore, "map_resources");
  move_.instant(restore_start + report_.full_restore + report_.restore_rdma, "replay");
  move_.push_slice("full_restore", report_.full_restore, obs::EdgeClass::restore_apply);
  move_.push_slice("restore_rdma", report_.restore_rdma, obs::EdgeClass::qp_reestablish);

  if (postcopy) {
    // Stage the fault path before the service resumes: the moment partners
    // switch QPs, their NIC DMA can touch pages that are still on the
    // source. The source process stays alive (frozen) as the pager until
    // the pump drains.
    pump_ = std::make_unique<PostcopyPump>(
        loop_, fabric_, move_.id(), move_.src_rt().host(), move_.dest_rt().host(),
        move_.src_proc(), move_.dest_proc(), move_.src_rt().device(), move_.mux());
    pump_->arm(std::move(postcopy_missing_));
    postcopy_missing_.clear();
  }

  loop_.schedule_in(report_.full_restore + rdma_cost, [this] { phase_resume(); });
}

void MigrationController::phase_resume() {
  phase_ = "resume";
  if (auto st = move_.resume(); !st.is_ok()) return fail(st);
  sync_mux_stats();
  report_.resume_at = loop_.now();
  const bool postcopy = options_.mode == MigrationMode::postcopy;
  if (postcopy) {
    obs::SliHub::global().on_postcopy_resume(move_.id(), report_.resume_at);
  } else {
    obs::SliHub::global().on_resume(move_.id(), report_.resume_at);
    // Source reclaims everything it still holds. (Post-copy defers this to
    // the drain: the frozen source process is the pager until then.)
    move_.src_proc().kill();
    move_.src_rt().device().close(src_ctx_);
    src_ctx_ = nullptr;
  }
  reset_throttle();

  if (app_ != nullptr) app_->on_migrated(move_.dest_proc());

  const GuestId id = move_.id();
  report_.ok = true;
  report_.end = loop_.now();
  move_.instant(report_.resume_at, "resume", "\"guest\":" + std::to_string(id));
  move_.span(report_.start, report_.resume_at - report_.start, "migration",
             "\"guest\":" + std::to_string(id));

  // Close the waterfall: a zero-duration thaw marker at the boundary, then
  // the parent span covering the whole attributed window.
  move_.push_slice("thaw", 0, obs::EdgeClass::slack);
  GuestMove::blackout_span(report_.freeze_at, report_.service_blackout(), "blackout",
                           "\"guest\":" + std::to_string(id));
  move_.resolve_cp(report_.critical_path, report_.freeze_at, report_.resume_at);

  // Time-to-first-completion after resume: the first CQE the migrated guest
  // sees is the earliest externally visible proof the service is live again.
  // The controller object may be retired before it lands, so the watcher
  // captures values, not `this`.
  {
    sim::EventLoop* loop = &loop_;
    const sim::TimeNs resume_at = report_.resume_at;
    move_.guest().raw().watch_next_cqe([loop, gid = id, resume_at] {
      const sim::TimeNs now = loop->now();
      obs::Registry::global()
          .gauge("migr.first_completion_ns", {{"guest", std::to_string(gid)}})
          .set(static_cast<double>(now - resume_at));
      GuestMove::blackout_span(resume_at, now - resume_at, "first_post_resume_completion",
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
  report_.brownout = obs::SliHub::global().attribution(move_.id());

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
  obs::SliHub::global().on_postcopy_drained(move_.id(), now);

  // Now the source really is done being the pager.
  move_.src_proc().kill();
  move_.src_rt().device().close(src_ctx_);
  src_ctx_ = nullptr;

  report_.postcopy = pump_->stats();
  sync_mux_stats();  // the prefetch/fault replies rode the mux too
  report_.end = now;
  move_.span(report_.resume_at, now - report_.resume_at, "postcopy_drain",
             "\"guest\":" + std::to_string(move_.id()) +
                 ",\"faults\":" + std::to_string(report_.postcopy.demand_faults) +
                 ",\"prefetched\":" + std::to_string(report_.postcopy.prefetched_pages));

  auto& reg = obs::Registry::global();
  reg.gauge("migr.report.postcopy_drain_ns")
      .set(static_cast<double>(report_.postcopy.drain_ns));
  reg.gauge("migr.report.postcopy_missing_pages")
      .set(static_cast<double>(report_.postcopy.missing_pages));

  report_.brownout = obs::SliHub::global().attribution(move_.id());
  if (done_) done_(report_);
}

}  // namespace migr::migrlib
