// MigrRDMA Guest Lib: the virtualized verbs library loaded into each RDMA
// application (paper Fig. 2a).
//
// Everything the application sees is in *virtual* ID space:
//  * virtual QPNs — equal to the physical QPN at creation; remapped after
//    migration via the indirection layer's array (§3.3 type 3).
//  * virtual lkeys — dense per-process integers (1, 2, 3, ...) so the
//    post-path translation is one array index (§3.3; the design LubeRDMA's
//    linked list is compared against in §6).
//  * virtual rkeys — dense per-process; remote peers resolve them through a
//    fetch-on-first-use cache (§3.3 type 4).
//
// The library also implements the wait-before-stop machinery (§3.4): the
// per-process WBS thread (parked until a suspension or an intercepted
// backlog needs it), WR interception during suspension, fake CQs that keep
// the application's poll loop live, n_sent/n_recv exchange for receive
// drain, CQ-event counting, and the timeout path for buggy networks.
//
// Checkpoint/restore entry points at the bottom are the "MigrRDMA Host Lib"
// APIs of Table 3, invoked by the CRIU plugin.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "migr/image.hpp"
#include "migr/runtime.hpp"
#include "proc/process.hpp"
#include "rnic/device.hpp"

namespace migr::migrlib {

/// Which QPs a suspension signal covers (§3.1: "on the migration source, we
/// suspend all the RDMA communications created by the applications, while
/// on the partner side, we only suspend the RDMA communication destined for
/// the migration source").
struct SuspendScope {
  bool all = true;
  GuestId migrating_peer = 0;  // used when !all
};

struct GuestQpAttr {
  rnic::QpType type = rnic::QpType::rc;
  VHandle vpd = 0;
  VHandle vsend_cq = 0;
  VHandle vrecv_cq = 0;
  VHandle vsrq = 0;
  rnic::QpCaps caps;
};

/// What reg_mr hands back to the application.
struct VMr {
  VLkey vlkey = 0;
  VRkey vrkey = 0;
  std::uint64_t addr = 0;
  std::uint64_t length = 0;
};

class GuestContext {
 public:
  GuestContext(MigrRdmaRuntime& runtime, proc::SimProcess& proc, GuestId id);
  ~GuestContext();
  GuestContext(const GuestContext&) = delete;
  GuestContext& operator=(const GuestContext&) = delete;

  GuestId id() const noexcept { return id_; }
  proc::SimProcess& process() noexcept { return *proc_; }
  MigrRdmaRuntime& runtime() noexcept { return *runtime_; }
  rnic::Context& raw() noexcept { return *ctx_; }

  // ------------------------------------------------------------------
  // Application-facing verbs (virtual IDs throughout)
  // ------------------------------------------------------------------
  common::Result<VHandle> alloc_pd();
  common::Status dealloc_pd(VHandle vpd);

  common::Result<VMr> reg_mr(VHandle vpd, std::uint64_t addr, std::uint64_t length,
                             std::uint32_t access);
  common::Status dereg_mr(VLkey vlkey);

  common::Result<VHandle> create_comp_channel();
  common::Result<VHandle> create_cq(std::uint32_t capacity, VHandle vchannel = 0);
  common::Result<VHandle> create_srq(VHandle vpd, std::uint32_t capacity);

  common::Result<VQpn> create_qp(const GuestQpAttr& attr);
  common::Status destroy_qp(VQpn vqpn);

  /// Connect an RC QP to a MigrRDMA peer: resolves the peer's virtual QPN
  /// to its physical QPN through the control plane, negotiates MigrRDMA
  /// support, walks INIT->RTR->RTS, and records the destination metadata
  /// (dest host + dest physical QPN, §3.2) needed to notify partners later.
  common::Status connect_qp(VQpn vqpn, GuestId peer, VQpn peer_vqpn,
                            rnic::Psn my_psn, rnic::Psn peer_psn);
  /// Hybrid case (§6): connect to a non-MigrRDMA endpoint given its raw
  /// physical QPN. Virtualization is excluded for this QP's traffic.
  common::Status connect_qp_raw(VQpn vqpn, net::HostId host, rnic::Qpn raw_pqpn,
                                rnic::Psn my_psn, rnic::Psn peer_psn);

  common::Status post_send(VQpn vqpn, rnic::SendWr wr);
  common::Status post_recv(VQpn vqpn, rnic::RecvWr wr);
  common::Status post_srq_recv(VHandle vsrq, rnic::RecvWr wr);
  int poll_cq(VHandle vcq, std::span<rnic::Cqe> out);
  common::Status req_notify_cq(VHandle vcq);
  std::optional<VHandle> get_cq_event(VHandle vchannel);
  void ack_cq_events(VHandle vchannel, std::uint32_t n);

  common::Result<VRkey> bind_mw_alloc(VHandle vpd);  // ibv_alloc_mw -> vmw id
  common::Result<VRkey> bind_mw(VQpn vqpn, VHandle vmw, VLkey mr_vlkey,
                                std::uint64_t addr, std::uint64_t length,
                                std::uint32_t access, std::uint64_t wr_id);

  common::Result<rnic::DeviceMemory> alloc_dm(std::uint64_t length);

  /// The raw physical rkey of one of our MRs — needed only when handing a
  /// key to a non-MigrRDMA peer (hybrid case).
  common::Result<rnic::Rkey> real_rkey(VRkey vrkey) const;

  // ------------------------------------------------------------------
  // Wait-before-stop / suspension (§3.4)
  // ------------------------------------------------------------------
  void suspend(const SuspendScope& scope);
  bool suspended() const noexcept { return suspend_active_; }
  bool wbs_done() const noexcept { return wbs_done_; }
  /// Buggy-network escape hatch: stop waiting, capture incomplete WRs for
  /// replay, declare WBS finished.
  void force_wbs_timeout();
  /// Roll back a suspension without migrating (controller abort path): lift
  /// the suspension flags, discard WBS bookkeeping, and flush the WRs
  /// intercepted during the suspension back onto the unchanged physical
  /// QPs. Timeout-harvested replays are dropped — their originals are still
  /// posted on the live QPs.
  common::Status abort_suspension();
  void set_wbs_done_callback(std::function<void()> cb) { wbs_done_cb_ = std::move(cb); }
  /// Counterpart's WBS thread delivered its n_sent for one of our QPs.
  void deliver_peer_n_sent(VQpn vqpn, std::uint64_t peer_n_sent);

  // ------------------------------------------------------------------
  // Partner-side protocol (§3.2 "establishing new RDMA communication on
  // partners")
  // ------------------------------------------------------------------
  /// Which of this guest's connected QPs point at the given peer guest.
  std::vector<VQpn> qps_to_peer(GuestId peer) const;
  /// Every MigrRDMA peer this guest has RC connections to.
  std::vector<GuestId> connected_peers() const;
  /// True if any connection goes to a non-MigrRDMA endpoint (hybrid case,
  /// §6) — such a service cannot be migrated, because wait-before-stop
  /// cannot run on that partner.
  bool has_raw_peer() const;
  /// Pre-establish a replacement QP for `vqpn`, sharing the old QP's CQ /
  /// PD / SRQ (§3.2). Returns the new physical QPN to exchange with the
  /// migration destination. Does not switch traffic yet.
  common::Result<rnic::Qpn> partner_prepare_qp(VQpn vqpn);
  /// Connect the prepared QP to the destination's physical QPN.
  common::Status partner_connect_qp(VQpn vqpn, net::HostId dest_host,
                                    rnic::Qpn dest_pqpn, rnic::Psn my_psn,
                                    rnic::Psn dest_psn);
  /// Rollback of an aborted peer migration: destroy the prepared-but-never-
  /// switched replacement QPs for connections to `peer`. Traffic keeps
  /// flowing on the original QPs, which were never touched.
  void partner_abort_prepared(GuestId peer);
  /// Step 7, once the peer's RDMA state is restored: retire the old QP,
  /// remap the virtual QPN onto the new one, replay un-received and
  /// intercepted RECVs, update the QP's destination metadata, invalidate
  /// cached rkeys/QPNs of the peer, and lift the suspension — except that
  /// sends to the peer stay intercepted until partner_resume.
  common::Status partner_switch_qp(VQpn vqpn, GuestId peer_new_identity);
  /// Step 7, when the peer resumes: on every QP switched to it, flush the
  /// sends held since the switch (and intercepted during suspension) and
  /// send normally again. Every QP is released even if a flush fails; the
  /// first error is returned.
  common::Status partner_resume(GuestId peer);

  /// Drop all cached rkey/remote-QPN translations belonging to a peer
  /// (done when that peer migrates, §3.3).
  void invalidate_peer_cache(GuestId peer);

  // ------------------------------------------------------------------
  // Checkpoint / restore (MigrRDMA Plugin + Host Lib, Table 3)
  // ------------------------------------------------------------------
  /// Dump the creation roadmap (pre-dump) or roadmap + WBS residue (final).
  RdmaImage dump(bool final);

  /// Memory ranges that must be mapped at their original virtual addresses
  /// before MRs can be re-registered (MR buffers + QP shadow buffers + DM
  /// mappings) — the plugin pins these VMAs during partial restore.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pinned_ranges() const;

  /// Adopt the resources a StagedRestore pre-established on the migration
  /// destination during partial restore: swap in the new physical context,
  /// update every virtual->physical table, install the physical->virtual
  /// QPN mappings in the destination's indirection layer, and re-home the
  /// library (including its WBS thread) onto the destination process.
  common::Status adopt_staged(class StagedRestore&& staged);

  /// Stop-and-copy fixups on the destination, after memory restoration
  /// finished: register deferred/late MRs, rebind memory windows, load
  /// fake-CQ residue and counters, replay pending RECVs, flush intercepted
  /// WRs, and lift suspension.
  common::Status finalize_restore(const RdmaImage& final_image);

  /// Per-QP physical QPN (for the controller to wire connections).
  common::Result<rnic::Qpn> physical_qpn(VQpn vqpn) const;
  common::Result<rnic::Qpn> current_pqpn_for_peer_fetch(VQpn vqpn) const;
  common::Result<rnic::Rkey> current_prkey(VRkey vrkey) const;
  /// Record the migrated peer's new location on QPs that pointed at it.
  void update_peer_location(GuestId peer, net::HostId new_host);

  /// Lifetime transport retransmits summed over the guest's *current*
  /// physical QPs — the SLI pipeline's per-guest retransmit source. Counts
  /// restart when a migration switches the guest onto fresh QPs; consumers
  /// (GuestSli) clamp window deltas at zero across the switch.
  std::uint64_t total_retransmits() const;

  /// Metadata queries used by controller/benches/tests.
  std::size_t qp_count() const noexcept { return qps_.size(); }
  std::size_t mr_count() const noexcept { return mrs_.size(); }
  std::uint64_t rkey_cache_size() const noexcept { return rkey_cache_.size(); }
  const std::vector<VQpn> all_vqpns() const;
  bool qp_suspended(VQpn vqpn) const;
  std::size_t fake_cq_depth(VHandle vcq) const;

 private:
  struct QpVirt {
    QpRec rec;              // creation roadmap + connection metadata
    rnic::Qpn pqpn = 0;     // current physical QP
    rnic::Qpn old_pqpn = 0;  // partner transition: retired QP, destroyed at switch
    rnic::Qpn new_pqpn = 0;  // partner transition: prepared replacement
    bool suspended = false;
    // Partner transition: switched to the peer's new QP, but sends stay
    // intercepted until the peer resumes (RECVs post normally).
    bool hold_sends = false;
    bool drained = false;    // WBS verdict for this QP
    std::uint64_t peer_n_sent = kNoPeerCount;
    bool peer_count_received = false;
    // Counter bases: physical counters restart at 0 on a new QP; virtual
    // counters are "since creation" (§3.4).
    std::uint64_t n_sent_base = 0;
    std::uint64_t n_recv_base = 0;
    // Interception buffers (virtual-space WRs).
    std::deque<rnic::SendWr> intercepted_sends;
    std::deque<rnic::RecvWr> intercepted_recvs;
    // WBS-timeout path: WRs harvested from the NIC queues (un-translated
    // back to virtual space) to replay before the intercepted ones.
    std::deque<rnic::SendWr> timeout_replays;
    // Partner transition bookkeeping: the destination endpoint the prepared
    // QP is connected to, promoted into `rec` at switch time.
    rnic::Qpn pending_dest_pqpn = 0;
    net::HostId pending_dest_host = 0;
    // Single-entry MRU in front of the rkey cache: posts overwhelmingly
    // target the same remote MR back-to-back, and two integer compares beat
    // a hash lookup on the fast path.
    VRkey mru_vrkey = 0;
    rnic::Rkey mru_prkey = 0;
  };
  static constexpr std::uint64_t kNoPeerCount = ~0ull;

  struct SrqVirt {
    SrqRec rec;
    rnic::Handle psrq = 0;
    std::deque<rnic::RecvWr> recv_shadow;
    std::deque<rnic::RecvWr> intercepted_recvs;
  };
  struct CqVirt {
    CqRec rec;
    rnic::Handle pcq = 0;
    std::deque<rnic::Cqe> fake;  // entries already in virtual ID space
  };
  struct ChannelVirt {
    ChannelRec rec;
    rnic::Handle pchannel = 0;
    std::uint64_t unfinished_events = 0;  // §3.4 "consistency of CQ events"
  };
  struct MrVirt {
    MrRec rec;
    rnic::Lkey plkey = 0;
    rnic::Rkey prkey = 0;
    bool live = false;  // registered on the current device?
  };
  struct MwVirt {
    MwRec rec;
    rnic::Handle pmw = 0;
    rnic::Rkey prkey = 0;
  };
  struct DmVirt {
    DmRec rec;
    rnic::Handle pdm = 0;
  };

  QpVirt* find_qp(VQpn vqpn);
  const QpVirt* find_qp(VQpn vqpn) const;
  common::Status translate_send_wr(QpVirt& qp, rnic::SendWr& wr);
  common::Status translate_sges(std::span<rnic::Sge> sge);
  /// One WBS-thread tick; false once it has nothing left to do (parks).
  bool wbs_tick();
  void wake_wbs() { proc_->loop().wake(wbs_task_); }
  /// Completions hidden by a suspension are visible to poll_cq again, and
  /// the WBS thread may now drain a backlog left from the suspension.
  void on_suspension_lifted();
  void drain_real_cqs();
  void check_wbs_termination();
  common::Status flush_intercepted(QpVirt& qp);
  void drain_pending_flush();
  common::Status replay_recv_shadows(QpVirt& qp);
  common::Status create_physical_qp(QpVirt& qp);
  void harvest_pending_recvs(RdmaImage& image);

  // Wait-before-stop poll period and the real-CQ drain batch.
  static constexpr sim::DurationNs kWbsPollInterval = sim::usec(5);
  static constexpr std::size_t kCqDrainBatch = 64;
  // Per-QP-buffer driver mapping size: each QP's queue memory is a VMA in
  // the process (restored by CRIU like any other memory). This is what
  // makes DumpOthers grow with the number of QPs in Fig. 3.
  static constexpr std::uint64_t kQpShadowBytes = 16 * 1024;

  MigrRdmaRuntime* runtime_;
  proc::SimProcess* proc_;
  GuestId id_;
  rnic::Context* ctx_ = nullptr;

  // Virtual handle allocators. Dense lkeys start at 1 (0 = invalid).
  VHandle next_vhandle_ = 1;
  VLkey next_vlkey_ = 1;
  VRkey next_vrkey_ = 1;

  std::unordered_map<VHandle, PdRec> pds_;
  std::unordered_map<VHandle, rnic::Handle> ppds_;  // vpd -> physical pd
  std::unordered_map<VHandle, ChannelVirt> channels_;
  std::unordered_map<VHandle, CqVirt> cqs_;
  std::unordered_map<VHandle, SrqVirt> srqs_;
  std::unordered_map<VLkey, MrVirt> mrs_;
  std::unordered_map<VQpn, QpVirt> qps_;
  std::unordered_map<VHandle, MwVirt> mws_;
  std::unordered_map<VHandle, DmVirt> dms_;

  // Dense virtual-lkey translation array: index = vlkey, value = physical
  // lkey (0 = unregistered). THE data-path fast path of §3.3.
  std::vector<rnic::Lkey> lkey_table_;
  // vrkey -> MR bookkeeping (rkeys are served to remote fetchers).
  std::unordered_map<VRkey, VLkey> vrkey_to_vlkey_;
  std::unordered_map<VRkey, VHandle> vrkey_to_vmw_;

  // Fetch-on-first-use caches for remote values (§3.3 type 4).
  struct PeerKey {
    GuestId peer;
    std::uint32_t vkey;
    bool operator==(const PeerKey&) const = default;
  };
  struct PeerKeyHash {
    std::size_t operator()(const PeerKey& k) const {
      return (static_cast<std::size_t>(k.peer) << 32) ^ k.vkey;
    }
  };
  std::unordered_map<PeerKey, rnic::Rkey, PeerKeyHash> rkey_cache_;
  std::unordered_map<PeerKey, rnic::Qpn, PeerKeyHash> remote_qpn_cache_;

  // QP shadow VMAs (driver queue mappings), keyed by vqpn.
  std::unordered_map<VQpn, std::uint64_t> qp_shadow_vmas_;

  // Suspension / WBS state.
  bool suspend_active_ = false;
  bool wbs_done_ = false;
  bool wbs_counts_sent_ = false;
  bool pending_flush_ = false;
  std::function<void()> wbs_done_cb_;
  sim::EventHandle wbs_task_;

  // Dump bookkeeping: last pre-dump snapshot for diffing.
  std::unique_ptr<RdmaImage> last_predump_;
  // MRs that could not be registered during partial restore (memory not
  // yet at its original address); registered in finalize_restore.
  std::vector<MrRec> deferred_mrs_;

  friend class MigrRdmaRuntime;
  friend class StagedRestore;
};

}  // namespace migr::migrlib
