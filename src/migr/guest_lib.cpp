#include "migr/guest_lib.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "migr/staged_restore.hpp"

namespace migr::migrlib {

using common::Errc;
using common::Result;
using common::Status;

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

GuestContext::GuestContext(MigrRdmaRuntime& runtime, proc::SimProcess& proc, GuestId id)
    : runtime_(&runtime), proc_(&proc), id_(id) {
  auto ctx = runtime.device().open(proc);
  ctx_ = ctx.value();  // open() only fails on exhaustion, not modelled
  lkey_table_.resize(64, 0);
  runtime_->indirection().register_guest(this);
  // The wait-before-stop thread is spawned when the library is loaded into
  // the process (§3.4) and sleeps until it is signalled: by suspend(), or by
  // an intercepted backlog it must drain (pending_flush_). It is a daemon,
  // so a freeze does not stop it mid-duty.
  wbs_task_ = proc_->spawn_task(kWbsPollInterval, [this] { return wbs_tick(); },
                                /*daemon=*/true);
}

GuestContext::~GuestContext() {
  wbs_task_.cancel();
  if (runtime_ != nullptr) runtime_->indirection().unregister_guest(this);
}

// ---------------------------------------------------------------------------
// Control path
// ---------------------------------------------------------------------------

Result<VHandle> GuestContext::alloc_pd() {
  MIGR_ASSIGN_OR_RETURN(auto ppd, ctx_->alloc_pd());
  const VHandle vpd = next_vhandle_++;
  pds_.emplace(vpd, PdRec{vpd});
  ppds_.emplace(vpd, ppd);
  return vpd;
}

Status GuestContext::dealloc_pd(VHandle vpd) {
  auto it = ppds_.find(vpd);
  if (it == ppds_.end()) return common::err(Errc::not_found, "no such vPD");
  MIGR_RETURN_IF_ERROR(ctx_->dealloc_pd(it->second));
  ppds_.erase(it);
  pds_.erase(vpd);
  return Status::ok();
}

Result<VMr> GuestContext::reg_mr(VHandle vpd, std::uint64_t addr, std::uint64_t length,
                                 std::uint32_t access) {
  auto it = ppds_.find(vpd);
  if (it == ppds_.end()) return common::err(Errc::not_found, "no such vPD");
  MIGR_ASSIGN_OR_RETURN(auto mr, ctx_->reg_mr(it->second, addr, length, access));
  // Dense virtual keys: the translation table stays an array (§3.3).
  const VLkey vlkey = next_vlkey_++;
  const VRkey vrkey = next_vrkey_++;
  if (vlkey >= lkey_table_.size()) lkey_table_.resize(vlkey * 2, 0);
  lkey_table_[vlkey] = mr.lkey;

  MrVirt mv;
  mv.rec = MrRec{vlkey, vrkey, vpd, addr, length, access};
  mv.plkey = mr.lkey;
  mv.prkey = mr.rkey;
  mv.live = true;
  mrs_.emplace(vlkey, std::move(mv));
  vrkey_to_vlkey_.emplace(vrkey, vlkey);
  return VMr{vlkey, vrkey, addr, length};
}

Status GuestContext::dereg_mr(VLkey vlkey) {
  auto it = mrs_.find(vlkey);
  if (it == mrs_.end()) return common::err(Errc::not_found, "no such vMR");
  if (it->second.live) MIGR_RETURN_IF_ERROR(ctx_->dereg_mr(it->second.plkey));
  lkey_table_[vlkey] = 0;
  vrkey_to_vlkey_.erase(it->second.rec.vrkey);
  // Deleting the record prunes the creation roadmap (§3.2: "MigrRDMA
  // deletes the corresponding resource creation log when destroyed").
  mrs_.erase(it);
  return Status::ok();
}

Result<VHandle> GuestContext::create_comp_channel() {
  MIGR_ASSIGN_OR_RETURN(auto pch, ctx_->create_comp_channel());
  const VHandle vch = next_vhandle_++;
  ChannelVirt cv;
  cv.rec = ChannelRec{vch};
  cv.pchannel = pch;
  channels_.emplace(vch, std::move(cv));
  return vch;
}

Result<VHandle> GuestContext::create_cq(std::uint32_t capacity, VHandle vchannel) {
  rnic::Handle pch = 0;
  if (vchannel != 0) {
    auto it = channels_.find(vchannel);
    if (it == channels_.end()) return common::err(Errc::not_found, "no such vChannel");
    pch = it->second.pchannel;
  }
  MIGR_ASSIGN_OR_RETURN(auto pcq, ctx_->create_cq(capacity, pch));
  const VHandle vcq = next_vhandle_++;
  CqVirt cv;
  cv.rec = CqRec{vcq, capacity, vchannel};
  cv.pcq = pcq;
  cqs_.emplace(vcq, std::move(cv));
  return vcq;
}

Result<VHandle> GuestContext::create_srq(VHandle vpd, std::uint32_t capacity) {
  auto it = ppds_.find(vpd);
  if (it == ppds_.end()) return common::err(Errc::not_found, "no such vPD");
  MIGR_ASSIGN_OR_RETURN(auto psrq, ctx_->create_srq(it->second, capacity));
  const VHandle vsrq = next_vhandle_++;
  SrqVirt sv;
  sv.rec = SrqRec{vsrq, vpd, capacity};
  sv.psrq = psrq;
  srqs_.emplace(vsrq, std::move(sv));
  return vsrq;
}

Status GuestContext::create_physical_qp(QpVirt& qp) {
  rnic::QpInitAttr attr;
  attr.type = qp.rec.type;
  auto pd_it = ppds_.find(qp.rec.vpd);
  auto scq_it = cqs_.find(qp.rec.vsend_cq);
  auto rcq_it = cqs_.find(qp.rec.vrecv_cq);
  if (pd_it == ppds_.end() || scq_it == cqs_.end() || rcq_it == cqs_.end()) {
    return common::err(Errc::not_found, "bad vPD/vCQ for QP");
  }
  attr.pd = pd_it->second;
  attr.send_cq = scq_it->second.pcq;
  attr.recv_cq = rcq_it->second.pcq;
  if (qp.rec.vsrq != 0) {
    auto srq_it = srqs_.find(qp.rec.vsrq);
    if (srq_it == srqs_.end()) return common::err(Errc::not_found, "no such vSRQ");
    attr.srq = srq_it->second.psrq;
  }
  attr.caps = qp.rec.caps;
  MIGR_ASSIGN_OR_RETURN(qp.pqpn, ctx_->create_qp(attr));
  return Status::ok();
}

Result<VQpn> GuestContext::create_qp(const GuestQpAttr& attr) {
  QpVirt qp;
  qp.rec.type = attr.type;
  qp.rec.vpd = attr.vpd;
  qp.rec.vsend_cq = attr.vsend_cq;
  qp.rec.vrecv_cq = attr.vrecv_cq;
  qp.rec.vsrq = attr.vsrq;
  qp.rec.caps = attr.caps;
  MIGR_RETURN_IF_ERROR(create_physical_qp(qp));
  // Virtual QPN == physical QPN at creation (§3.3); identity needs no
  // translation-table entry.
  const VQpn vqpn = qp.pqpn;
  qp.rec.vqpn = vqpn;
  // The driver's queue mapping for this QP is ordinary process memory; CRIU
  // restores it like any other VMA (and its count is why DumpOthers grows
  // with #QPs in Fig. 3).
  auto shadow = proc_->mem().mmap(kQpShadowBytes, "qp_shadow");
  if (shadow.is_ok()) qp_shadow_vmas_.emplace(vqpn, shadow.value());
  qps_.emplace(vqpn, std::move(qp));
  return vqpn;
}

Status GuestContext::destroy_qp(VQpn vqpn) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  MIGR_RETURN_IF_ERROR(ctx_->destroy_qp(qp->pqpn));
  runtime_->indirection().unmap_qpn(qp->pqpn);
  auto shadow = qp_shadow_vmas_.find(vqpn);
  if (shadow != qp_shadow_vmas_.end()) {
    (void)proc_->mem().munmap(shadow->second);
    qp_shadow_vmas_.erase(shadow);
  }
  qps_.erase(vqpn);
  return Status::ok();
}

Status GuestContext::connect_qp(VQpn vqpn, GuestId peer, VQpn peer_vqpn,
                                rnic::Psn my_psn, rnic::Psn peer_psn) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  const net::HostId peer_host = runtime_->directory().locate(peer);
  if (peer_host == 0) return common::err(Errc::unavailable, "peer not in directory");
  MIGR_ASSIGN_OR_RETURN(auto peer_pqpn, runtime_->fetch_pqpn(peer, peer_vqpn));

  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_init(qp->pqpn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rtr(qp->pqpn, peer_host, peer_pqpn, peer_psn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rts(qp->pqpn, my_psn));

  qp->rec.connected = true;
  qp->rec.dest_host = peer_host;
  qp->rec.dest_pqpn = peer_pqpn;
  qp->rec.dest_vqpn = peer_vqpn;
  qp->rec.peer_guest = peer;
  // Hybrid negotiation (§6): exclude virtualization for non-MigrRDMA peers.
  qp->rec.peer_is_migrrdma = runtime_->peer_supports_migrrdma(peer);
  return Status::ok();
}

Status GuestContext::connect_qp_raw(VQpn vqpn, net::HostId host, rnic::Qpn raw_pqpn,
                                    rnic::Psn my_psn, rnic::Psn peer_psn) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_init(qp->pqpn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rtr(qp->pqpn, host, raw_pqpn, peer_psn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rts(qp->pqpn, my_psn));
  qp->rec.connected = true;
  qp->rec.dest_host = host;
  qp->rec.dest_pqpn = raw_pqpn;
  qp->rec.dest_vqpn = raw_pqpn;
  qp->rec.peer_guest = 0;
  qp->rec.peer_is_migrrdma = false;
  return Status::ok();
}

Result<VRkey> GuestContext::bind_mw_alloc(VHandle vpd) {
  auto it = ppds_.find(vpd);
  if (it == ppds_.end()) return common::err(Errc::not_found, "no such vPD");
  MIGR_ASSIGN_OR_RETURN(auto pmw, ctx_->alloc_mw(it->second));
  const VHandle vmw = next_vhandle_++;
  MwVirt mv;
  mv.rec.vmw = vmw;
  mv.rec.vpd = vpd;
  mv.pmw = pmw;
  mws_.emplace(vmw, std::move(mv));
  return vmw;
}

Result<VRkey> GuestContext::bind_mw(VQpn vqpn, VHandle vmw, VLkey mr_vlkey,
                                    std::uint64_t addr, std::uint64_t length,
                                    std::uint32_t access, std::uint64_t wr_id) {
  QpVirt* qp = find_qp(vqpn);
  auto mw_it = mws_.find(vmw);
  auto mr_it = mrs_.find(mr_vlkey);
  if (qp == nullptr || mw_it == mws_.end() || mr_it == mrs_.end()) {
    return common::err(Errc::not_found, "bad vQP/vMW/vMR");
  }
  MIGR_ASSIGN_OR_RETURN(auto prkey, ctx_->bind_mw(qp->pqpn, mw_it->second.pmw,
                                                  mr_it->second.plkey, addr, length,
                                                  access, wr_id));
  MwVirt& mw = mw_it->second;
  if (mw.rec.bound) vrkey_to_vmw_.erase(mw.rec.vrkey);
  mw.prkey = prkey;
  mw.rec.bound = true;
  mw.rec.vrkey = next_vrkey_++;
  mw.rec.mr_vlkey = mr_vlkey;
  mw.rec.bind_vqpn = vqpn;
  mw.rec.addr = addr;
  mw.rec.length = length;
  mw.rec.access = access;
  vrkey_to_vmw_.emplace(mw.rec.vrkey, vmw);
  return mw.rec.vrkey;
}

Result<rnic::DeviceMemory> GuestContext::alloc_dm(std::uint64_t length) {
  MIGR_ASSIGN_OR_RETURN(auto dm, ctx_->alloc_dm(length));
  DmVirt dv;
  dv.rec = DmRec{next_vhandle_++, dm.length, dm.mapped_at};
  dv.pdm = dm.handle;
  dms_.emplace(dv.rec.vdm, dv);
  return dm;
}

Result<rnic::Rkey> GuestContext::real_rkey(VRkey vrkey) const {
  auto it = vrkey_to_vlkey_.find(vrkey);
  if (it != vrkey_to_vlkey_.end()) return mrs_.at(it->second).prkey;
  auto mw_it = vrkey_to_vmw_.find(vrkey);
  if (mw_it != vrkey_to_vmw_.end()) return mws_.at(mw_it->second).prkey;
  return common::err(Errc::not_found, "no such vRkey");
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

GuestContext::QpVirt* GuestContext::find_qp(VQpn vqpn) {
  auto it = qps_.find(vqpn);
  return it == qps_.end() ? nullptr : &it->second;
}
const GuestContext::QpVirt* GuestContext::find_qp(VQpn vqpn) const {
  auto it = qps_.find(vqpn);
  return it == qps_.end() ? nullptr : &it->second;
}

Status GuestContext::translate_sges(std::span<rnic::Sge> sge) {
  for (auto& s : sge) {
    // THE fast path: dense virtual lkey -> array-indexed physical lkey.
    if (s.lkey >= lkey_table_.size() || lkey_table_[s.lkey] == 0) {
      return common::err(Errc::permission_denied, "bad virtual lkey");
    }
    s.lkey = lkey_table_[s.lkey];
  }
  return Status::ok();
}

Status GuestContext::translate_send_wr(QpVirt& qp, rnic::SendWr& wr) {
  MIGR_RETURN_IF_ERROR(translate_sges(wr.sge));
  if (rnic::is_one_sided(wr.opcode) && qp.rec.peer_is_migrrdma) {
    // rkey: virtual -> physical via the fetch-on-first-use cache (§3.3),
    // fronted by a per-QP MRU entry.
    if (wr.rkey == qp.mru_vrkey && qp.mru_prkey != 0) {
      runtime_->stats().rkey_cache_hits++;
      wr.rkey = qp.mru_prkey;
    } else {
      const PeerKey key{qp.rec.peer_guest, wr.rkey};
      auto it = rkey_cache_.find(key);
      rnic::Rkey prkey;
      if (it != rkey_cache_.end()) {
        runtime_->stats().rkey_cache_hits++;
        prkey = it->second;
      } else {
        MIGR_ASSIGN_OR_RETURN(prkey, runtime_->fetch_rkey(key.peer, key.vkey));
        rkey_cache_.emplace(key, prkey);
      }
      qp.mru_vrkey = wr.rkey;
      qp.mru_prkey = prkey;
      wr.rkey = prkey;
    }
  }
  if (qp.rec.type == rnic::QpType::ud) {
    // UD addressing is virtual: remote_host carries the peer's GuestId and
    // remote_qpn its virtual QPN; resolve both (§3.3 case 2: translation on
    // every request, served by the local cache).
    const GuestId peer = wr.remote_host;
    const PeerKey key{peer, wr.remote_qpn};
    auto it = remote_qpn_cache_.find(key);
    rnic::Qpn pqpn;
    if (it != remote_qpn_cache_.end()) {
      pqpn = it->second;
    } else {
      MIGR_ASSIGN_OR_RETURN(pqpn, runtime_->fetch_pqpn(peer, wr.remote_qpn));
      remote_qpn_cache_.emplace(key, pqpn);
    }
    wr.remote_qpn = pqpn;
    wr.remote_host = runtime_->directory().locate(peer);
  }
  return Status::ok();
}

Status GuestContext::post_send(VQpn vqpn, rnic::SendWr wr) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  if (qp->suspended || qp->hold_sends) {
    // Intercept and pretend the WR hit the wire (§3.4): the application
    // keeps its asynchronous view and just sees completions arrive later.
    // An opcode the NIC would refuse is refused now, not in the image.
    if (wr.opcode > rnic::kLastWrOpcode) {
      return common::err(Errc::invalid_argument, "unknown WR opcode");
    }
    qp->intercepted_sends.push_back(std::move(wr));
    return Status::ok();
  }
  MIGR_RETURN_IF_ERROR(translate_send_wr(*qp, wr));
  return ctx_->post_send(qp->pqpn, std::move(wr));
}

Status GuestContext::post_recv(VQpn vqpn, rnic::RecvWr wr) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  if (qp->suspended) {
    qp->intercepted_recvs.push_back(std::move(wr));
    return Status::ok();
  }
  MIGR_RETURN_IF_ERROR(translate_sges(wr.sge));
  return ctx_->post_recv(qp->pqpn, std::move(wr));
}

Status GuestContext::post_srq_recv(VHandle vsrq, rnic::RecvWr wr) {
  auto it = srqs_.find(vsrq);
  if (it == srqs_.end()) return common::err(Errc::not_found, "no such vSRQ");
  if (suspend_active_) {
    it->second.intercepted_recvs.push_back(std::move(wr));
    return Status::ok();
  }
  MIGR_RETURN_IF_ERROR(translate_sges(wr.sge));
  return ctx_->post_srq_recv(it->second.psrq, std::move(wr));
}

int GuestContext::poll_cq(VHandle vcq, std::span<rnic::Cqe> out) {
  auto it = cqs_.find(vcq);
  if (it == cqs_.end()) return -1;
  CqVirt& cq = it->second;
  int n = 0;
  // Fake CQ first (§3.4): entries parked by the WBS thread or carried over
  // from before migration, already in virtual ID space.
  while (n < static_cast<int>(out.size()) && !cq.fake.empty()) {
    out[n++] = cq.fake.front();
    cq.fake.pop_front();
  }
  if (n > 0) return n;
  if (suspend_active_) return 0;  // the WBS thread owns the real CQ now
  n = ctx_->poll_cq(cq.pcq, out);
  for (int i = 0; i < n; ++i) {
    // Physical -> virtual QPN via the indirection layer's shared array.
    out[i].qpn = runtime_->indirection().translate_qpn(out[i].qpn);
  }
  return n;
}

Status GuestContext::req_notify_cq(VHandle vcq) {
  auto it = cqs_.find(vcq);
  if (it == cqs_.end()) return common::err(Errc::not_found, "no such vCQ");
  return ctx_->req_notify_cq(it->second.pcq);
}

std::optional<VHandle> GuestContext::get_cq_event(VHandle vchannel) {
  auto it = channels_.find(vchannel);
  if (it == channels_.end()) return std::nullopt;
  auto pcq = ctx_->get_cq_event(it->second.pchannel);
  if (!pcq.has_value()) return std::nullopt;
  // Track unfinished events: a delivered-but-unacked event blocks WBS
  // termination (§3.4 "consistency of CQ events").
  it->second.unfinished_events++;
  for (auto& [vcq, cq] : cqs_) {
    if (cq.pcq == *pcq) return vcq;
  }
  return std::nullopt;
}

void GuestContext::ack_cq_events(VHandle vchannel, std::uint32_t n) {
  auto it = channels_.find(vchannel);
  if (it == channels_.end()) return;
  ctx_->ack_cq_events(it->second.pchannel, n);
  it->second.unfinished_events -= std::min<std::uint64_t>(n, it->second.unfinished_events);
}

// ---------------------------------------------------------------------------
// Suspension & wait-before-stop (§3.4)
// ---------------------------------------------------------------------------

void GuestContext::suspend(const SuspendScope& scope) {
  bool any = false;
  for (auto& [vqpn, qp] : qps_) {
    if (scope.all || (qp.rec.connected && qp.rec.peer_guest == scope.migrating_peer)) {
      qp.suspended = true;
      qp.drained = false;
      any = true;
    }
  }
  suspend_active_ = true;
  wbs_done_ = !any;  // nothing to wait for
  wbs_counts_sent_ = false;
  wake_wbs();
  if (wbs_done_ && wbs_done_cb_) wbs_done_cb_();
}

void GuestContext::deliver_peer_n_sent(VQpn vqpn, std::uint64_t peer_n_sent) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return;
  qp->peer_n_sent = peer_n_sent;
  qp->peer_count_received = true;
}

void GuestContext::drain_real_cqs() {
  std::vector<rnic::Cqe> batch(kCqDrainBatch);
  bool parked_any = false;
  for (auto& [vcq, cq] : cqs_) {
    for (;;) {
      const int n = ctx_->poll_cq(cq.pcq, batch);
      if (n <= 0) break;
      for (int i = 0; i < n; ++i) {
        rnic::Cqe cqe = batch[i];
        cqe.qpn = runtime_->indirection().translate_qpn(cqe.qpn);
        cq.fake.push_back(cqe);
      }
      parked_any = true;
      if (n < static_cast<int>(batch.size())) break;
    }
  }
  // The application polls the fake CQs: it has completions again.
  if (parked_any) proc_->wake_tasks();
}

bool GuestContext::wbs_tick() {
  if (!suspend_active_) {
    // Post-restore duty: keep draining intercepted backlogs that exceeded
    // the queue capacity at flush time.
    if (pending_flush_) drain_pending_flush();
    return pending_flush_;
  }
  if (wbs_done_) return false;

  // One-shot n_sent exchange with the peers of the suspended QPs.
  if (!wbs_counts_sent_) {
    wbs_counts_sent_ = true;
    for (auto& [vqpn, qp] : qps_) {
      if (!qp.suspended || !qp.rec.connected || !qp.rec.peer_is_migrrdma) continue;
      const rnic::Qp* real = ctx_->find_qp(qp.pqpn);
      const std::uint64_t n_sent = qp.n_sent_base + (real ? real->n_sent : 0);
      MigrRdmaRuntime* peer_rt = runtime_->directory().runtime_of(qp.rec.peer_guest);
      GuestContext* peer = peer_rt ? peer_rt->find_guest(qp.rec.peer_guest) : nullptr;
      if (peer != nullptr) peer->deliver_peer_n_sent(qp.rec.dest_vqpn, n_sent);
    }
  }

  // Keep consuming completions on behalf of the application.
  drain_real_cqs();
  check_wbs_termination();
  return !wbs_done_;
}

void GuestContext::check_wbs_termination() {
  bool all_drained = true;
  for (auto& [vqpn, qp] : qps_) {
    if (!qp.suspended || qp.drained) continue;
    const rnic::Qp* real = ctx_->find_qp(qp.pqpn);
    if (real == nullptr) {
      qp.drained = true;
      continue;
    }
    // Send side: the SQ window (head..tail) is exactly the inflight WRs.
    const bool sends_done = real->sq.empty();
    // Receive side: done iff the peer's posted two-sided count matches our
    // completed-receive count (§3.4). Unconnected / UD / non-MigrRDMA QPs
    // have no peer protocol; their receive side is considered drained.
    bool recvs_done = true;
    if (qp.rec.connected && qp.rec.peer_is_migrrdma && qp.rec.type == rnic::QpType::rc) {
      if (!qp.peer_count_received) {
        recvs_done = false;
      } else {
        const std::uint64_t n_recv = qp.n_recv_base + real->n_recv;
        recvs_done = n_recv >= qp.peer_n_sent;
      }
    }
    if (sends_done && recvs_done) {
      qp.drained = true;
    } else {
      all_drained = false;
    }
  }
  if (!all_drained) return;
  // The absence of unfinished CQ events is a further necessary condition.
  for (auto& [vch, ch] : channels_) {
    if (ch.unfinished_events != 0) return;
  }
  wbs_done_ = true;
  if (wbs_done_cb_) wbs_done_cb_();
}

void GuestContext::force_wbs_timeout() {
  if (!suspend_active_ || wbs_done_) return;
  // Buggy network (§3.4): give up waiting. WRs posted to the NIC but not
  // completed are harvested from the (memory-mapped) queue buffers and will
  // be replayed before the intercepted WRs after restoration.
  std::unordered_map<rnic::Lkey, VLkey> rev;
  for (const auto& [vlkey, mr] : mrs_) rev.emplace(mr.plkey, vlkey);

  for (auto& [vqpn, qp] : qps_) {
    if (!qp.suspended || qp.drained) continue;
    const rnic::Qp* real = ctx_->find_qp(qp.pqpn);
    if (real != nullptr) {
      for (std::size_t i = 0; i < real->sq.size(); ++i) {
        rnic::SendWr wr = real->sq.at(i).wr;  // physical-space copy
        for (auto& s : wr.sge) {
          auto it = rev.find(s.lkey);
          if (it != rev.end()) s.lkey = it->second;
        }
        if (rnic::is_one_sided(wr.opcode) && qp.rec.peer_is_migrrdma) {
          for (const auto& [key, prkey] : rkey_cache_) {
            if (prkey == wr.rkey && key.peer == qp.rec.peer_guest) {
              wr.rkey = key.vkey;
              break;
            }
          }
        }
        qp.timeout_replays.push_back(std::move(wr));
      }
    }
    qp.drained = true;
  }
  drain_real_cqs();
  wbs_done_ = true;
  if (wbs_done_cb_) wbs_done_cb_();
}

Status GuestContext::abort_suspension() {
  if (!suspend_active_) return Status::ok();
  Status first = Status::ok();
  for (auto& [vqpn, qp] : qps_) {
    if (!qp.suspended) continue;
    qp.suspended = false;
    qp.drained = false;
    qp.peer_n_sent = kNoPeerCount;
    qp.peer_count_received = false;
    // A WBS timeout may have harvested copies of WRs that are still posted
    // on this (live) QP; replaying them here would double-post.
    qp.timeout_replays.clear();
    if (auto st = flush_intercepted(qp); !st.is_ok() && first.is_ok()) first = st;
  }
  suspend_active_ = false;
  wbs_done_ = false;
  wbs_counts_sent_ = false;
  on_suspension_lifted();
  return first;
}

void GuestContext::on_suspension_lifted() {
  proc_->wake_tasks();
  if (pending_flush_) wake_wbs();
}

// ---------------------------------------------------------------------------
// Partner-side protocol
// ---------------------------------------------------------------------------

std::vector<GuestId> GuestContext::connected_peers() const {
  std::vector<GuestId> out;
  for (const auto& [vqpn, qp] : qps_) {
    if (qp.rec.connected && qp.rec.peer_is_migrrdma && qp.rec.peer_guest != 0 &&
        std::find(out.begin(), out.end(), qp.rec.peer_guest) == out.end()) {
      out.push_back(qp.rec.peer_guest);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool GuestContext::has_raw_peer() const {
  for (const auto& [vqpn, qp] : qps_) {
    if (qp.rec.connected && !qp.rec.peer_is_migrrdma) return true;
  }
  return false;
}

std::vector<VQpn> GuestContext::qps_to_peer(GuestId peer) const {
  std::vector<VQpn> out;
  for (const auto& [vqpn, qp] : qps_) {
    if (qp.rec.connected && qp.rec.peer_guest == peer) out.push_back(vqpn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<rnic::Qpn> GuestContext::partner_prepare_qp(VQpn vqpn) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  if (qp->new_pqpn != 0) return qp->new_pqpn;  // idempotent
  // The replacement QP shares the old QP's CQ (applications poll one CQ for
  // many QPs — moving to a fresh CQ would break transparency, §3.2), plus
  // the same PD/SRQ.
  QpVirt replacement;
  replacement.rec = qp->rec;
  MIGR_RETURN_IF_ERROR(create_physical_qp(replacement));
  qp->new_pqpn = replacement.pqpn;
  return qp->new_pqpn;
}

Status GuestContext::partner_connect_qp(VQpn vqpn, net::HostId dest_host,
                                        rnic::Qpn dest_pqpn, rnic::Psn my_psn,
                                        rnic::Psn dest_psn) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  if (qp->new_pqpn == 0) return common::err(Errc::failed_precondition, "prepare first");
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_init(qp->new_pqpn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rtr(qp->new_pqpn, dest_host, dest_pqpn, dest_psn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rts(qp->new_pqpn, my_psn));
  qp->pending_dest_pqpn = dest_pqpn;
  qp->pending_dest_host = dest_host;
  return Status::ok();
}

void GuestContext::partner_abort_prepared(GuestId peer) {
  for (auto& [vqpn, qp] : qps_) {
    if (qp.rec.peer_guest != peer || qp.new_pqpn == 0) continue;
    (void)ctx_->destroy_qp(qp.new_pqpn);
    qp.new_pqpn = 0;
    qp.pending_dest_pqpn = 0;
    qp.pending_dest_host = 0;
  }
}

Status GuestContext::partner_switch_qp(VQpn vqpn, GuestId peer_new_identity) {
  QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  if (qp->new_pqpn == 0) return common::err(Errc::failed_precondition, "prepare first");

  // §3.3: "right before Step 7, the partner translates the original
  // physical QPN to the virtual QPN and maps the virtual QPN to the new QP".
  runtime_->indirection().unmap_qpn(qp->pqpn);
  qp->old_pqpn = qp->pqpn;
  qp->pqpn = qp->new_pqpn;
  qp->new_pqpn = 0;
  runtime_->indirection().map_qpn(qp->pqpn, vqpn);

  // Carry the "since creation" counters over from the old QP.
  if (const rnic::Qp* old_real = ctx_->find_qp(qp->old_pqpn)) {
    qp->n_sent_base += old_real->n_sent;
    qp->n_recv_base += old_real->n_recv;
  }

  qp->rec.dest_pqpn = qp->pending_dest_pqpn;
  qp->rec.dest_host = qp->pending_dest_host;
  qp->rec.peer_guest = peer_new_identity;

  // Replay RECVs that were posted on the old QP but never matched (§3.4),
  // then the RECVs intercepted during suspension.
  MIGR_RETURN_IF_ERROR(replay_recv_shadows(*qp));

  // All completions of the old QP were parked in fake CQs by WBS; the old
  // QP can go, along with its translation entries.
  (void)ctx_->destroy_qp(qp->old_pqpn);
  runtime_->indirection().unmap_qpn(qp->old_pqpn);
  qp->old_pqpn = 0;

  invalidate_peer_cache(peer_new_identity);

  // RECVs the application posted during suspension join them now, so the
  // peer's replayed sends find a full RQ. Sends stay held until
  // partner_resume: the peer cannot re-post its own RQ before it runs
  // again, so messages sent earlier would only draw RNR NAKs.
  qp->suspended = false;
  qp->hold_sends = true;
  MIGR_RETURN_IF_ERROR(flush_intercepted(*qp));
  // Leave suspend_active_ set until every transitioning QP has switched.
  bool any_suspended = false;
  for (auto& [v, q] : qps_) {
    if (q.suspended) any_suspended = true;
  }
  if (!any_suspended) {
    suspend_active_ = false;
    wbs_done_ = false;
    on_suspension_lifted();
  }
  return Status::ok();
}

Status GuestContext::partner_resume(GuestId peer) {
  Status first = Status::ok();
  for (auto& [vqpn, qp] : qps_) {
    if (!qp.hold_sends || qp.rec.peer_guest != peer) continue;
    qp.hold_sends = false;
    if (auto st = flush_intercepted(qp); !st.is_ok() && first.is_ok()) first = st;
  }
  return first;
}

void GuestContext::invalidate_peer_cache(GuestId peer) {
  std::erase_if(rkey_cache_, [peer](const auto& kv) { return kv.first.peer == peer; });
  std::erase_if(remote_qpn_cache_, [peer](const auto& kv) { return kv.first.peer == peer; });
  for (auto& [vqpn, qp] : qps_) {
    if (qp.rec.peer_guest == peer) {
      qp.mru_vrkey = 0;
      qp.mru_prkey = 0;
    }
  }
}

void GuestContext::update_peer_location(GuestId peer, net::HostId new_host) {
  for (auto& [vqpn, qp] : qps_) {
    if (qp.rec.connected && qp.rec.peer_guest == peer) qp.rec.dest_host = new_host;
  }
}

Status GuestContext::replay_recv_shadows(QpVirt& qp) {
  // Un-received RECVs sit in the old QP's (memory-mapped) RQ; read them
  // back, un-translate the lkeys, and repost on the current QP.
  const rnic::Qp* old_real = ctx_->find_qp(qp.old_pqpn != 0 ? qp.old_pqpn : qp.pqpn);
  if (old_real == nullptr) return Status::ok();
  std::unordered_map<rnic::Lkey, VLkey> rev;
  for (const auto& [vlkey, mr] : mrs_) rev.emplace(mr.plkey, vlkey);
  for (std::size_t i = 0; i < old_real->rq.size(); ++i) {
    rnic::RecvWr wr = old_real->rq.at(i);
    for (auto& s : wr.sge) {
      auto it = rev.find(s.lkey);
      if (it != rev.end()) s.lkey = it->second;
    }
    MIGR_RETURN_IF_ERROR(translate_sges(wr.sge));
    MIGR_RETURN_IF_ERROR(ctx_->post_recv(qp.pqpn, std::move(wr)));
  }
  return Status::ok();
}

Status GuestContext::flush_intercepted(QpVirt& qp) {
  // The intercepted backlog can exceed the queue capacity (the application
  // kept posting through the whole suspension). Post what fits; the WBS
  // thread keeps draining the remainder as completions free slots.
  auto post_send_bounded = [&](std::deque<rnic::SendWr>& q) -> Status {
    while (!q.empty()) {
      rnic::SendWr wr = q.front();
      MIGR_RETURN_IF_ERROR(translate_send_wr(qp, wr));
      const auto st = ctx_->post_send(qp.pqpn, std::move(wr));
      if (st.code() == Errc::resource_exhausted) {
        pending_flush_ = true;
        wake_wbs();
        return Status::ok();  // retry from the WBS thread
      }
      MIGR_RETURN_IF_ERROR(st);
      q.pop_front();
    }
    return Status::ok();
  };
  // Timeout-harvested WRs replay first (§3.4 "buggy network situations").
  if (!qp.hold_sends) MIGR_RETURN_IF_ERROR(post_send_bounded(qp.timeout_replays));
  while (!qp.intercepted_recvs.empty()) {
    rnic::RecvWr wr = qp.intercepted_recvs.front();
    MIGR_RETURN_IF_ERROR(translate_sges(wr.sge));
    const auto st = ctx_->post_recv(qp.pqpn, std::move(wr));
    if (st.code() == Errc::resource_exhausted) {
      pending_flush_ = true;
      wake_wbs();
      return Status::ok();
    }
    MIGR_RETURN_IF_ERROR(st);
    qp.intercepted_recvs.pop_front();
  }
  if (qp.hold_sends || !qp.timeout_replays.empty()) return Status::ok();  // keep ordering
  MIGR_RETURN_IF_ERROR(post_send_bounded(qp.intercepted_sends));
  return Status::ok();
}

void GuestContext::drain_pending_flush() {
  bool remaining = false;
  for (auto& [vqpn, qp] : qps_) {
    if (qp.suspended) continue;
    if (qp.timeout_replays.empty() && qp.intercepted_sends.empty() &&
        qp.intercepted_recvs.empty()) {
      continue;
    }
    (void)flush_intercepted(qp);
    if (!qp.timeout_replays.empty() || !qp.intercepted_sends.empty() ||
        !qp.intercepted_recvs.empty()) {
      remaining = true;
    }
  }
  pending_flush_ = remaining;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Result<rnic::Qpn> GuestContext::physical_qpn(VQpn vqpn) const {
  const QpVirt* qp = find_qp(vqpn);
  if (qp == nullptr) return common::err(Errc::not_found, "no such vQP");
  return qp->pqpn;
}

Result<rnic::Qpn> GuestContext::current_pqpn_for_peer_fetch(VQpn vqpn) const {
  return physical_qpn(vqpn);
}

Result<rnic::Rkey> GuestContext::current_prkey(VRkey vrkey) const { return real_rkey(vrkey); }

const std::vector<VQpn> GuestContext::all_vqpns() const {
  std::vector<VQpn> out;
  out.reserve(qps_.size());
  for (const auto& [vqpn, qp] : qps_) out.push_back(vqpn);
  std::sort(out.begin(), out.end());
  return out;
}

bool GuestContext::qp_suspended(VQpn vqpn) const {
  const QpVirt* qp = find_qp(vqpn);
  return qp != nullptr && qp->suspended;
}

std::uint64_t GuestContext::total_retransmits() const {
  std::uint64_t total = 0;
  if (ctx_ == nullptr) return 0;
  for (const auto& [vqpn, qp] : qps_) {
    if (const rnic::Qp* pqp = ctx_->find_qp(qp.pqpn)) total += pqp->retransmits;
  }
  return total;
}

std::size_t GuestContext::fake_cq_depth(VHandle vcq) const {
  auto it = cqs_.find(vcq);
  return it == cqs_.end() ? 0 : it->second.fake.size();
}

}  // namespace migr::migrlib
