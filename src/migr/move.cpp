#include "migr/move.hpp"

#include <algorithm>

namespace migr::migrlib {

using common::Errc;
using common::Status;

void write_slices(common::Json& j, const std::vector<PhaseSlice>& slices) {
  j.arr();
  for (const PhaseSlice& s : slices) {
    j.obj().key("name").val(s.name).key("start_ns").val(s.start).key("dur_ns").val(s.dur);
    j.raw(s.detail).end();
  }
  j.end();
}

common::Result<EpochFrame> read_epoch_frame(Section frame) {
  common::ByteReader r{frame};
  MIGR_ASSIGN_OR_RETURN(const std::uint64_t epoch, r.u64());
  MIGR_ASSIGN_OR_RETURN(const Section payload, r.view());
  return EpochFrame{epoch, payload};
}

GuestMove::GuestMove(sim::EventLoop& loop, net::Fabric& fabric, GuestDirectory& directory,
                     const char* cat, rnic::Psn psn_base, criu::CriuCosts criu_costs)
    : loop_(loop), fabric_(fabric), directory_(directory), cat_(cat), psn_cursor_(psn_base),
      criu_costs_(criu_costs) {}

Status GuestMove::open(GuestId id, net::HostId dest_host, proc::SimProcess& dest_proc,
                       std::string_view mux_prefix, XferOptions xo) {
  id_ = id;
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
  if (guest_->has_raw_peer()) {
    return common::err(Errc::failed_precondition, "guest has non-MigrRDMA partners (§6)");
  }
  src_proc_ = &guest_->process();
  dest_proc_ = &dest_proc;
  ckpt_ = std::make_unique<criu::Checkpointer>(*src_proc_, criu_costs_);
  restorer_ = std::make_unique<criu::Restorer>(dest_proc, criu_costs_);
  xo.cp = &cp_;
  mux_ = std::make_unique<TransferMux>(loop_, fabric_,
                                       std::string{mux_prefix} + "." + std::to_string(id) + "." +
                                           std::to_string(fabric_.next_service_instance()),
                                       src_rt_->host(), dest_rt_->host(), xo);
  return Status::ok();
}

GuestContext* GuestMove::find(GuestId id) const {
  MigrRdmaRuntime* rt = directory_.runtime_of(id);
  return rt == nullptr ? nullptr : rt->find_guest(id);
}

// ---------------------------------------------------------------------------
// Staging
// ---------------------------------------------------------------------------

common::Result<sim::DurationNs> GuestMove::stage(const criu::MemoryImage& mem,
                                                 const criu::PageSet& pages,
                                                 const Section* predump) {
  sim::DurationNs cost = 0;
  if (predump != nullptr) {
    // Step 2' part 1: map RDMA memory structures (on-chip memory) before
    // the memory restoration starts (§3.2).
    MIGR_RETURN_IF_ERROR(plugin_.premap(*predump, *dest_rt_, *dest_proc_));
    cost += plugin_.take_cost();
    pinned_ = Plugin::pinned_vma_starts(mem, plugin_.predump_image());
  }
  MIGR_ASSIGN_OR_RETURN(const auto begun, restorer_->begin(mem, pinned_));
  cost += begun.cost;
  MIGR_ASSIGN_OR_RETURN(const auto applied, restorer_->apply_pages(pages));
  return cost + applied.cost;
}

common::Result<sim::DurationNs> GuestMove::update(const criu::MemoryImage& mem,
                                                  const criu::PageSet& pages) {
  MIGR_ASSIGN_OR_RETURN(const auto merged, restorer_->update(mem, pinned_));
  MIGR_ASSIGN_OR_RETURN(const auto applied, restorer_->apply_pages(pages));
  return merged.cost + applied.cost;
}

common::Result<sim::DurationNs> GuestMove::setup_rdma(Section predump) {
  MIGR_RETURN_IF_ERROR(plugin_.pre_setup(predump, *dest_rt_, *dest_proc_));
  const sim::DurationNs cost = plugin_.take_cost();
  // The source notifies every partner (dest address + the partner-side
  // physical QPNs); each pre-establishes its replacement QPs.
  partners_.clear();
  for (const auto& q : plugin_.predump_image().qps) {
    if (!q.connected || !q.peer_is_migrrdma || q.peer_guest == 0) continue;
    if (q.peer_guest == id_) continue;  // self-connection
    GuestContext* partner = find(q.peer_guest);
    if (partner == nullptr) return common::err(Errc::unavailable, "partner guest not reachable");
    MIGR_ASSIGN_OR_RETURN(auto partner_new_pqpn, partner->partner_prepare_qp(q.dest_vqpn));
    MIGR_ASSIGN_OR_RETURN(auto dest_pqpn, plugin_.staged().pqpn(q.vqpn));
    const rnic::Psn psn_a = psn_cursor_ += 4096;
    const rnic::Psn psn_b = psn_cursor_ += 4096;
    const net::HostId peer_host = directory_.locate(q.peer_guest);
    MIGR_RETURN_IF_ERROR(
        plugin_.staged().connect_qp(q.vqpn, peer_host, partner_new_pqpn, psn_a, psn_b));
    MIGR_RETURN_IF_ERROR(partner->partner_connect_qp(q.dest_vqpn, dest_rt_->host(), dest_pqpn,
                                                     psn_b, psn_a));
    plugin_.staged().set_peer_endpoint(q.vqpn, peer_host, partner_new_pqpn, q.peer_guest);
    // Partner-side control-path time: brownout on the partner, not
    // blackout anywhere (§3.2 "communication pre-setup on the partner side
    // does not incur blackout time").
    (void)partner->raw().take_ctrl_cost();
    if (std::find(partners_.begin(), partners_.end(), q.peer_guest) == partners_.end()) {
      partners_.push_back(q.peer_guest);
    }
  }
  // Connecting the staged QPs (INIT/RTR/RTS per QP) is the bulk of the
  // RestoreRDMA time pre-setup moves out of the blackout window.
  return cost + plugin_.staged().take_ctrl_cost();
}

// ---------------------------------------------------------------------------
// Partner set
// ---------------------------------------------------------------------------

void GuestMove::fall_back_to_peers() {
  if (partners_.empty()) partners_ = guest_->connected_peers();
}

void GuestMove::suspend_partners(const std::function<void()>& on_wbs, bool harvest) {
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner == nullptr) continue;
    // Before the suspend: it calls back at once when nothing is in flight.
    partner->set_wbs_done_callback(on_wbs);
    partner->suspend(SuspendScope{false, id_});
    if (harvest && !partner->wbs_done()) partner->force_wbs_timeout();
  }
}

void GuestMove::force_partner_wbs() {
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner != nullptr && !partner->wbs_done()) partner->force_wbs_timeout();
  }
}

void GuestMove::clear_wbs_callbacks() {
  guest_->set_wbs_done_callback(nullptr);
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner != nullptr) partner->set_wbs_done_callback(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Commit and resume
// ---------------------------------------------------------------------------

common::Result<sim::DurationNs> GuestMove::commit(Section final_rdma) {
  // Step 6': map the new RDMA resources into the restored process and apply
  // the virtualization fix-ups; step 7: replay. From the release on, the
  // guest's resources are being rewired onto the destination and an
  // in-place source resume is no longer possible.
  committed_ = true;
  auto owned = src_rt_->release_guest(guest_);
  if (owned == nullptr) return common::err(Errc::internal, "guest ownership lost");
  MIGR_RETURN_IF_ERROR(plugin_.full_restore(*guest_, final_rdma, *dest_rt_));
  dest_rt_->adopt_guest(std::move(owned));
  const sim::DurationNs cost = plugin_.take_cost();

  // Partners switch to the pre-established QPs (step 7 on the partner) and
  // re-post their RECVs there; their sends to the guest wait for its resume.
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner == nullptr) continue;
    for (VQpn vqpn : partner->qps_to_peer(id_)) {
      MIGR_RETURN_IF_ERROR(partner->partner_switch_qp(vqpn, id_));
    }
    partner->update_peer_location(id_, dest_rt_->host());
    (void)partner->raw().take_ctrl_cost();
  }
  return cost;
}

Status GuestMove::resume() { return release_partners(); }

Status GuestMove::release_partners() {
  Status first = Status::ok();
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner == nullptr) continue;
    if (auto st = partner->partner_resume(id_); !st.is_ok() && first.is_ok()) first = st;
  }
  return first;
}

// ---------------------------------------------------------------------------
// Rollback
// ---------------------------------------------------------------------------

void GuestMove::abort() {
  // Detach the WBS machinery from the dead move and roll the partners back:
  // destroy prepared-but-unswitched replacement QPs, then lift their
  // suspension so traffic to the source resumes.
  guest_->set_wbs_done_callback(nullptr);
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner == nullptr) continue;
    partner->set_wbs_done_callback(nullptr);
    partner->partner_abort_prepared(id_);
    if (partner->suspended()) (void)partner->abort_suspension();
  }
  // Resume the source service in place.
  if (src_proc_->frozen()) src_proc_->thaw();
  if (guest_->suspended()) (void)guest_->abort_suspension();
  // Reclaim everything staged on the destination RNIC.
  plugin_.abort_staged();
}

void GuestMove::unstage() {
  for (GuestId pid : partners_) {
    GuestContext* partner = find(pid);
    if (partner != nullptr) partner->partner_abort_prepared(id_);
  }
  plugin_.abort_staged();
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void GuestMove::trace_root(sim::TimeNs at, std::string_view name, std::string args) {
  auto& t = obs::Tracer::global();
  if (!t.enabled()) return;
  trace_id_ = t.new_id();
  root_span_ = t.new_id();
  t.instant(at, name, cat_, std::move(args), root_span_, 0);
  mux_->set_trace_context(trace_ctx());
}

void GuestMove::span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                     std::string args) const {
  auto& t = obs::Tracer::global();
  if (t.enabled()) {
    t.complete(start, dur, name, cat_, std::move(args), t.new_id(), t.context().span_id);
  }
}

void GuestMove::instant(sim::TimeNs at, std::string_view name, std::string args) const {
  auto& t = obs::Tracer::global();
  if (t.enabled()) t.instant(at, name, cat_, std::move(args), t.new_id(), t.context().span_id);
}

void GuestMove::blackout_span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                              std::string args) {
  auto& t = obs::Tracer::global();
  if (t.enabled()) {
    t.complete(start, dur, name, "migr.blackout", std::move(args), t.new_id(),
               t.context().span_id);
  }
}

void GuestMove::open_slices(std::vector<PhaseSlice>& out, sim::TimeNs at) {
  slices_ = &out;
  wf_cursor_ = at;
}

void GuestMove::push_slice(std::string name, sim::DurationNs dur, obs::EdgeClass cls,
                           std::string detail) {
  blackout_span(wf_cursor_, dur, name, detail);
  if (cls != obs::EdgeClass::slack && cp_.enabled()) {
    cp_.add(wf_cursor_, wf_cursor_ + dur, cls, name);
  }
  slices_->push_back(PhaseSlice{std::move(name), wf_cursor_, dur, std::move(detail)});
  wf_cursor_ += dur;
}

void GuestMove::resolve_cp(obs::CriticalPath& out, sim::TimeNs from, sim::TimeNs to) const {
  if (cp_.enabled() && from != 0 && to != 0) out = cp_.resolve(from, to);
}

}  // namespace migr::migrlib
