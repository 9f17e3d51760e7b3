// Checkpoint (dump) and restore halves of the guest library: what the
// MigrRDMA Plugin calls through the Host Lib APIs of Table 3.
#include <algorithm>

#include "common/log.hpp"
#include "migr/guest_lib.hpp"
#include "migr/staged_restore.hpp"

namespace migr::migrlib {

using common::Errc;
using common::Result;
using common::Status;

// ---------------------------------------------------------------------------
// Dump
// ---------------------------------------------------------------------------

void GuestContext::harvest_pending_recvs(RdmaImage& image) {
  // RECVs posted to the NIC but not yet matched by a message live in the
  // (memory-mapped) RQ/SRQ buffers; read them back and un-translate the
  // lkeys to virtual space so they can be replayed on the new QPs (§3.4).
  std::unordered_map<rnic::Lkey, VLkey> rev;
  for (const auto& [vlkey, mr] : mrs_) rev.emplace(mr.plkey, vlkey);
  auto untranslate = [&rev](rnic::RecvWr wr) {
    for (auto& s : wr.sge) {
      auto it = rev.find(s.lkey);
      if (it != rev.end()) s.lkey = it->second;
    }
    return wr;
  };

  for (auto& [vqpn, qp] : qps_) {
    if (const rnic::Qp* real = ctx_->find_qp(qp.pqpn)) {
      for (std::size_t i = 0; i < real->rq.size(); ++i) {
        image.pending_recvs.push_back(VRecvWr{vqpn, 0, untranslate(real->rq.at(i))});
      }
    }
    // RECVs intercepted during suspension follow the posted ones, keeping
    // the application's posting order.
    for (auto& wr : qp.intercepted_recvs) {
      image.pending_recvs.push_back(VRecvWr{vqpn, 0, std::move(wr)});
    }
    qp.intercepted_recvs.clear();
  }
  for (auto& [vsrq, srq] : srqs_) {
    if (const rnic::Srq* real = ctx_->find_srq(srq.psrq)) {
      for (std::size_t i = 0; i < real->wqes.size(); ++i) {
        image.pending_recvs.push_back(VRecvWr{0, vsrq, untranslate(real->wqes.at(i))});
      }
    }
    for (auto& wr : srq.intercepted_recvs) {
      image.pending_recvs.push_back(VRecvWr{0, vsrq, std::move(wr)});
    }
    srq.intercepted_recvs.clear();
  }
}

RdmaImage GuestContext::dump(bool final) {
  RdmaImage img;
  img.final = final;
  for (const auto& [vpd, rec] : pds_) img.pds.push_back(rec);
  for (const auto& [vch, ch] : channels_) img.channels.push_back(ch.rec);
  for (const auto& [vcq, cq] : cqs_) img.cqs.push_back(cq.rec);
  for (const auto& [vsrq, srq] : srqs_) img.srqs.push_back(srq.rec);
  for (const auto& [vlkey, mr] : mrs_) img.mrs.push_back(mr.rec);
  for (const auto& [vdm, dm] : dms_) img.dms.push_back(dm.rec);
  for (const auto& [vmw, mw] : mws_) img.mws.push_back(mw.rec);
  for (const auto& [vqpn, qp] : qps_) img.qps.push_back(qp.rec);

  if (!final) {
    last_predump_ = std::make_unique<RdmaImage>(img);
    return img;
  }

  // Stop-and-copy: dump only the difference from the pre-dump, plus the
  // virtualization info and WBS residue (§4: "we only need to dump RDMA
  // states twice ... it generates only the difference").
  for (auto& [vqpn, qp] : qps_) {
    for (auto& wr : qp.timeout_replays) {
      img.incomplete_sends.push_back(VSendWr{vqpn, std::move(wr)});
    }
    qp.timeout_replays.clear();
    for (auto& wr : qp.intercepted_sends) {
      img.intercepted_sends.push_back(VSendWr{vqpn, std::move(wr)});
    }
    qp.intercepted_sends.clear();

    const rnic::Qp* real = ctx_->find_qp(qp.pqpn);
    img.counters.push_back(QpCounters{vqpn, qp.n_sent_base + (real ? real->n_sent : 0),
                                      qp.n_recv_base + (real ? real->n_recv : 0)});
  }
  harvest_pending_recvs(img);
  for (auto& [vcq, cq] : cqs_) {
    for (const auto& cqe : cq.fake) img.fake_cq_entries.push_back(FakeCqe{vcq, cqe});
    cq.fake.clear();
  }

  RdmaImage diff = last_predump_ ? img.diff_against(*last_predump_) : img;
  diff.final = true;
  return diff;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> GuestContext::pinned_ranges() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [vlkey, mr] : mrs_) out.emplace_back(mr.rec.addr, mr.rec.length);
  for (const auto& [vqpn, addr] : qp_shadow_vmas_) {
    out.emplace_back(addr, kQpShadowBytes);
  }
  for (const auto& [vdm, dm] : dms_) out.emplace_back(dm.rec.mapped_at, dm.rec.length);
  return out;
}

// ---------------------------------------------------------------------------
// StagedRestore
// ---------------------------------------------------------------------------

Status StagedRestore::premap(const RdmaImage& image, MigrRdmaRuntime& runtime,
                             proc::SimProcess& proc) {
  runtime_ = &runtime;
  proc_ = &proc;
  MIGR_ASSIGN_OR_RETURN(ctx_, runtime.device().open(proc));
  for (const auto& rec : image.dms) {
    if (proc.mem().mapped(rec.mapped_at, rec.length)) {
      // No-pre-setup baseline: memory restoration already re-created the
      // DM-backed pages; only the device-side allocation needs re-doing.
      MIGR_ASSIGN_OR_RETURN(auto dm, ctx_->adopt_dm(rec.length, rec.mapped_at));
      dms_.emplace(rec.vdm, dm.handle);
      continue;
    }
    // Allocate on-chip memory of the same size and remap it to the original
    // virtual address (Table 1: "remap it to the original virtual address
    // after its allocation on the RNIC of the new location").
    MIGR_ASSIGN_OR_RETURN(auto dm, ctx_->alloc_dm(rec.length));
    MIGR_RETURN_IF_ERROR(proc.mem().mremap(dm.mapped_at, rec.mapped_at));
    dms_.emplace(rec.vdm, dm.handle);
  }
  ctrl_cost_ += ctx_->take_ctrl_cost();
  return Status::ok();
}

Status StagedRestore::build(const RdmaImage& image) {
  if (ctx_ == nullptr) return common::err(Errc::failed_precondition, "premap first");
  image_ = image;
  for (const auto& rec : image.pds) {
    MIGR_ASSIGN_OR_RETURN(auto ppd, ctx_->alloc_pd());
    pds_.emplace(rec.vpd, ppd);
  }
  for (const auto& rec : image.channels) {
    MIGR_ASSIGN_OR_RETURN(auto pch, ctx_->create_comp_channel());
    channels_.emplace(rec.vchannel, pch);
  }
  for (const auto& rec : image.cqs) {
    rnic::Handle pch = 0;
    if (rec.vchannel != 0) {
      auto it = channels_.find(rec.vchannel);
      if (it == channels_.end()) return common::err(Errc::not_found, "image: bad vchannel");
      pch = it->second;
    }
    MIGR_ASSIGN_OR_RETURN(auto pcq, ctx_->create_cq(rec.capacity, pch));
    cqs_.emplace(rec.vcq, pcq);
  }
  for (const auto& rec : image.srqs) {
    auto pd = pds_.find(rec.vpd);
    if (pd == pds_.end()) return common::err(Errc::not_found, "image: bad vpd for srq");
    MIGR_ASSIGN_OR_RETURN(auto psrq, ctx_->create_srq(pd->second, rec.capacity));
    srqs_.emplace(rec.vsrq, psrq);
  }
  for (const auto& rec : image.mrs) {
    auto st = register_mr(rec);
    if (!st.is_ok()) deferred_.push_back(rec);
  }
  for (const auto& rec : image.mws) {
    auto pd = pds_.find(rec.vpd);
    if (pd == pds_.end()) return common::err(Errc::not_found, "image: bad vpd for mw");
    MIGR_ASSIGN_OR_RETURN(auto pmw, ctx_->alloc_mw(pd->second));
    mws_.emplace(rec.vmw, pmw);
  }
  for (const auto& rec : image.qps) {
    rnic::QpInitAttr attr;
    attr.type = rec.type;
    auto pd = pds_.find(rec.vpd);
    auto scq = cqs_.find(rec.vsend_cq);
    auto rcq = cqs_.find(rec.vrecv_cq);
    if (pd == pds_.end() || scq == cqs_.end() || rcq == cqs_.end()) {
      return common::err(Errc::not_found, "image: bad qp deps");
    }
    attr.pd = pd->second;
    attr.send_cq = scq->second;
    attr.recv_cq = rcq->second;
    if (rec.vsrq != 0) {
      auto srq = srqs_.find(rec.vsrq);
      if (srq == srqs_.end()) return common::err(Errc::not_found, "image: bad vsrq");
      attr.srq = srq->second;
    }
    attr.caps = rec.caps;
    MIGR_ASSIGN_OR_RETURN(auto pqpn, ctx_->create_qp(attr));
    qps_.emplace(rec.vqpn, pqpn);
  }
  ctrl_cost_ += ctx_->take_ctrl_cost();
  return Status::ok();
}

Status StagedRestore::register_mr(const MrRec& rec) {
  auto pd = pds_.find(rec.vpd);
  if (pd == pds_.end()) return common::err(Errc::not_found, "image: bad vpd for mr");
  if (!proc_->mem().mapped(rec.addr, rec.length)) {
    return common::err(Errc::failed_precondition, "MR memory not yet at original address");
  }
  MIGR_ASSIGN_OR_RETURN(auto mr, ctx_->reg_mr(pd->second, rec.addr, rec.length, rec.access));
  mrs_[rec.vlkey] = {mr.lkey, mr.rkey};
  ctrl_cost_ += ctx_->take_ctrl_cost();
  return Status::ok();
}

Status StagedRestore::connect_qp(VQpn vqpn, net::HostId remote_host, rnic::Qpn remote_pqpn,
                                 rnic::Psn my_psn, rnic::Psn remote_psn) {
  auto it = qps_.find(vqpn);
  if (it == qps_.end()) return common::err(Errc::not_found, "no staged QP");
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_init(it->second));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rtr(it->second, remote_host, remote_pqpn, remote_psn));
  MIGR_RETURN_IF_ERROR(ctx_->modify_qp_rts(it->second, my_psn));
  ctrl_cost_ += ctx_->take_ctrl_cost();
  return Status::ok();
}

Result<rnic::Qpn> StagedRestore::pqpn(VQpn vqpn) const {
  auto it = qps_.find(vqpn);
  if (it == qps_.end()) return common::err(Errc::not_found, "no staged QP");
  return it->second;
}

void StagedRestore::abandon() {
  // Closing the staged context destroys every resource created under it
  // (QPs, MRs, CQs, ...) in one sweep — the same reclamation path the
  // source side uses after a successful migration.
  if (ctx_ != nullptr && runtime_ != nullptr) {
    runtime_->device().close(ctx_);
  }
  ctx_ = nullptr;
  runtime_ = nullptr;
  proc_ = nullptr;
  pds_.clear();
  channels_.clear();
  cqs_.clear();
  srqs_.clear();
  dms_.clear();
  mws_.clear();
  mrs_.clear();
  qps_.clear();
  peer_endpoints_.clear();
  deferred_.clear();
  image_ = RdmaImage{};
  ctrl_cost_ = 0;
}

// ---------------------------------------------------------------------------
// Adoption / finalize
// ---------------------------------------------------------------------------

Status GuestContext::adopt_staged(StagedRestore&& staged) {
  // Leave the source runtime; the plugin reclaims the old physical context.
  runtime_->indirection().unregister_guest(this);
  wbs_task_.cancel();

  runtime_ = staged.runtime_;
  proc_ = staged.proc_;
  ctx_ = staged.ctx_;

  for (auto& [vpd, rec] : pds_) {
    auto it = staged.pds_.find(vpd);
    if (it == staged.pds_.end()) return common::err(Errc::internal, "staged: missing vPD");
    ppds_[vpd] = it->second;
  }
  for (auto& [vch, ch] : channels_) {
    auto it = staged.channels_.find(vch);
    if (it == staged.channels_.end()) return common::err(Errc::internal, "staged: missing vCh");
    ch.pchannel = it->second;
    ch.unfinished_events = 0;
  }
  for (auto& [vcq, cq] : cqs_) {
    auto it = staged.cqs_.find(vcq);
    if (it == staged.cqs_.end()) return common::err(Errc::internal, "staged: missing vCQ");
    cq.pcq = it->second;
  }
  for (auto& [vsrq, srq] : srqs_) {
    auto it = staged.srqs_.find(vsrq);
    if (it == staged.srqs_.end()) return common::err(Errc::internal, "staged: missing vSRQ");
    srq.psrq = it->second;
  }
  for (auto& [vdm, dm] : dms_) {
    auto it = staged.dms_.find(vdm);
    if (it == staged.dms_.end()) return common::err(Errc::internal, "staged: missing vDM");
    dm.pdm = it->second;
  }
  for (auto& [vmw, mw] : mws_) {
    auto it = staged.mws_.find(vmw);
    if (it == staged.mws_.end()) return common::err(Errc::internal, "staged: missing vMW");
    mw.pmw = it->second;
    mw.prkey = 0;  // rebound in finalize_restore
  }
  for (auto& [vlkey, mr] : mrs_) {
    auto it = staged.mrs_.find(vlkey);
    if (it != staged.mrs_.end()) {
      mr.plkey = it->second.first;
      mr.prkey = it->second.second;
      mr.live = true;
      if (vlkey >= lkey_table_.size()) lkey_table_.resize(vlkey * 2, 0);
      lkey_table_[vlkey] = mr.plkey;
    } else {
      mr.live = false;
      if (vlkey < lkey_table_.size()) lkey_table_[vlkey] = 0;
    }
  }
  deferred_mrs_ = staged.deferred_;

  for (auto& [vqpn, qp] : qps_) {
    auto it = staged.qps_.find(vqpn);
    if (it == staged.qps_.end()) {
      // QP created on the source after the pre-dump: re-create it now (on
      // the blackout path); it comes back unconnected and the application
      // must re-establish the connection.
      MIGR_RETURN_IF_ERROR(create_physical_qp(qp));
      qp.rec.connected = false;
    } else {
      qp.pqpn = it->second;
    }
    // Virtualize: the application's virtual QPN now maps to the new
    // physical one; the CQE translation array picks it up (§3.3).
    runtime_->indirection().map_qpn(qp.pqpn, vqpn);
    auto peer = staged.peer_endpoints_.find(vqpn);
    if (peer != staged.peer_endpoints_.end()) {
      qp.rec.dest_host = peer->second.host;
      qp.rec.dest_pqpn = peer->second.pqpn;
      if (peer->second.peer != 0) qp.rec.peer_guest = peer->second.peer;
    }
    qp.new_pqpn = 0;
    qp.old_pqpn = 0;
  }

  runtime_->indirection().register_guest(this);
  wbs_task_ = proc_->spawn_task(kWbsPollInterval, [this] { return wbs_tick(); },
                                /*daemon=*/true);
  return Status::ok();
}

Status GuestContext::finalize_restore(const RdmaImage& final_image) {
  // Late + deferred MRs register now that memory restoration is complete
  // ("we restore the conflicting MRs at the end of stop-and-copy", §3.2).
  auto register_now = [this](const MrRec& rec) -> Status {
    auto pd = ppds_.find(rec.vpd);
    if (pd == ppds_.end()) return common::err(Errc::not_found, "bad vpd for late MR");
    MIGR_ASSIGN_OR_RETURN(auto mr, ctx_->reg_mr(pd->second, rec.addr, rec.length, rec.access));
    auto it = mrs_.find(rec.vlkey);
    if (it == mrs_.end()) {
      MrVirt mv;
      mv.rec = rec;
      mrs_.emplace(rec.vlkey, std::move(mv));
      vrkey_to_vlkey_.emplace(rec.vrkey, rec.vlkey);
      it = mrs_.find(rec.vlkey);
    }
    it->second.plkey = mr.lkey;
    it->second.prkey = mr.rkey;
    it->second.live = true;
    if (rec.vlkey >= lkey_table_.size()) lkey_table_.resize(rec.vlkey * 2, 0);
    lkey_table_[rec.vlkey] = mr.lkey;
    return Status::ok();
  };
  for (const auto& rec : deferred_mrs_) MIGR_RETURN_IF_ERROR(register_now(rec));
  deferred_mrs_.clear();
  for (const auto& rec : final_image.mrs) {
    auto it = mrs_.find(rec.vlkey);
    if (it == mrs_.end() || !it->second.live) MIGR_RETURN_IF_ERROR(register_now(rec));
  }

  // Rebind memory windows on their (already reconnected) QPs; the virtual
  // rkey is stable, only the physical one changes.
  for (auto& [vmw, mw] : mws_) {
    if (!mw.rec.bound) continue;
    QpVirt* qp = find_qp(mw.rec.bind_vqpn);
    auto mr = mrs_.find(mw.rec.mr_vlkey);
    if (qp == nullptr || mr == mrs_.end()) continue;
    auto prkey = ctx_->bind_mw(qp->pqpn, mw.pmw, mr->second.plkey, mw.rec.addr,
                               mw.rec.length, mw.rec.access, /*wr_id=*/0);
    if (prkey.is_ok()) {
      mw.prkey = prkey.value();
    } else {
      MIGR_WARN() << "MW rebind failed: " << prkey.status().to_string();
    }
  }

  // Counters continue "since creation" values on the fresh physical QPs.
  for (const auto& c : final_image.counters) {
    QpVirt* qp = find_qp(c.vqpn);
    if (qp != nullptr) {
      qp->n_sent_base = c.n_sent;
      qp->n_recv_base = c.n_recv;
    }
  }

  // Unconsumed completions migrate via the fake CQs (§3.4).
  for (const auto& f : final_image.fake_cq_entries) {
    auto it = cqs_.find(f.vcq);
    if (it != cqs_.end()) it->second.fake.push_back(f.cqe);
  }

  // Replay RECVs posted-but-unmatched before migration, in order.
  for (const auto& r : final_image.pending_recvs) {
    rnic::RecvWr wr = r.wr;
    MIGR_RETURN_IF_ERROR(translate_sges(wr.sge));
    if (r.vqpn != 0) {
      QpVirt* qp = find_qp(r.vqpn);
      if (qp == nullptr) continue;
      MIGR_RETURN_IF_ERROR(ctx_->post_recv(qp->pqpn, std::move(wr)));
    } else {
      auto it = srqs_.find(r.vsrq);
      if (it == srqs_.end()) continue;
      MIGR_RETURN_IF_ERROR(ctx_->post_srq_recv(it->second.psrq, std::move(wr)));
    }
  }

  // Lift suspension *before* posting so the posts take the normal path.
  for (auto& [vqpn, qp] : qps_) {
    qp.suspended = false;
    qp.drained = false;
    qp.peer_count_received = false;
    qp.peer_n_sent = kNoPeerCount;
  }
  suspend_active_ = false;
  wbs_done_ = false;
  wbs_counts_sent_ = false;
  // The lift also covers the fake-CQ residue loaded above.
  on_suspension_lifted();

  // WRs the NIC never completed (timeout path) replay first, then the WRs
  // intercepted during suspension (§3.4). Loading them back into the
  // library's buffers and flushing bounded handles backlogs larger than
  // the queue capacity (the WBS thread drains the remainder).
  for (const auto& s : final_image.incomplete_sends) {
    QpVirt* qp = find_qp(s.vqpn);
    if (qp != nullptr) qp->timeout_replays.push_back(s.wr);
  }
  for (const auto& s : final_image.intercepted_sends) {
    QpVirt* qp = find_qp(s.vqpn);
    if (qp != nullptr) qp->intercepted_sends.push_back(s.wr);
  }
  for (auto& [vqpn, qp] : qps_) {
    MIGR_RETURN_IF_ERROR(flush_intercepted(qp));
  }
  return Status::ok();
}

}  // namespace migr::migrlib
