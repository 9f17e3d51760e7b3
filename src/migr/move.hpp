// GuestMove: the steps a live migration and an FT failover share.
//
// Both move a guest the same way (§3.2, Fig. 2(b)). While the guest still
// runs, its memory and RDMA state are staged on the destination and every
// partner pre-establishes a replacement QP. Then the guest is committed
// there, the partners switch QPs, and it resumes (steps 6'-7).
// MigrationController and FtController each drive one GuestMove and keep
// only their own parts: pre-copy, wait-before-stop, the final dump,
// post-copy and abort bookkeeping on one side; epochs, output commit,
// heartbeats and the takeover CAS on the other.
//
// GuestMove also carries what both report with: the image-transfer mux, the
// blackout slice cursor, the critical-path recorder and the trace root.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "criu/checkpoint.hpp"
#include "migr/plugin.hpp"
#include "migr/runtime.hpp"
#include "migr/xfer.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace migr::migrlib {

/// One contiguous slice of a blackout window. Slices tile the window: each
/// starts where the previous ended, the first starts at the window's start,
/// and the durations sum exactly to the blackout — the waterfall is an
/// attribution of the blackout, not a sampling of it.
struct PhaseSlice {
  std::string name;
  sim::TimeNs start = 0;
  sim::DurationNs dur = 0;
  std::string detail;  // extra JSON object *fragment*, e.g. "\"bytes\":512"
};

/// `[{"name":..,"start_ns":..,"dur_ns":..,<detail>},...]`
void write_slices(common::Json& j, const std::vector<PhaseSlice>& slices);

/// A view into an image payload.
using Section = std::span<const std::uint8_t>;

/// The first N length-prefixed sections of an image payload, as views into
/// it. Every payload is a memory image and a page batch, followed by the
/// RDMA images its phase carries: the pre-dump (initial copy, FT epochs),
/// none (a pre-copy round) or the pre-dump and the final dump (final diff).
template <std::size_t N>
common::Result<std::array<Section, N>> read_sections(Section payload) {
  common::ByteReader r{payload};
  std::array<Section, N> out;
  for (Section& s : out) {
    auto v = r.view();
    if (!v.is_ok()) return common::err(common::Errc::invalid_argument, "corrupt image payload");
    s = v.value();
  }
  return out;
}

/// FT's epoch frame: a u64 epoch, then the length-prefixed image payload.
struct EpochFrame {
  std::uint64_t epoch = 0;
  Section payload;
};
common::Result<EpochFrame> read_epoch_frame(Section frame);

class GuestMove {
 public:
  /// `cat` is the trace category of the owner's spans; `psn_base` seeds the
  /// PSNs of the replacement connections (the flight recorder carries them).
  GuestMove(sim::EventLoop& loop, net::Fabric& fabric, GuestDirectory& directory,
            const char* cat, rnic::Psn psn_base, criu::CriuCosts criu_costs);

  /// Resolve guest `id` on its host and the destination host, build the
  /// source Checkpointer and a Restorer into `dest_proc`, and open a mux on
  /// fresh `<mux_prefix>.<id>.<instance>.<k>` services: a retried move never
  /// collides with (and later tears down) a newer one's streams. Rejects an
  /// unknown or identical host, a missing guest, and a guest with a
  /// non-MigrRDMA partner (§6: wait-before-stop cannot run there).
  common::Status open(GuestId id, net::HostId dest_host, proc::SimProcess& dest_proc,
                      std::string_view mux_prefix, XferOptions xo);

  // ---- staging on the destination, while the guest runs ----
  /// The first image: with `predump`, premap its device memory and pin the
  /// VMAs RDMA needs at their addresses (§3.2); then begin the restore and
  /// apply the pages. Returns the simulated cost.
  common::Result<sim::DurationNs> stage(const criu::MemoryImage& mem, const criu::PageSet& pages,
                                        const Section* predump);
  /// A later image: a pre-copy round, an FT epoch or the final diff.
  common::Result<sim::DurationNs> update(const criu::MemoryImage& mem,
                                         const criu::PageSet& pages);
  /// RDMA pre-setup from the pre-dump, then every partner pre-establishes
  /// replacement QPs that share its old CQ and exchanges QPNs with the
  /// destination (§3.2). Records the partner set. Returns the control-path
  /// cost; the partners' own share is brownout on them, never blackout.
  common::Result<sim::DurationNs> setup_rdma(Section predump);

  // ---- the partner set ----
  const std::vector<GuestId>& partners() const noexcept { return partners_; }
  /// Without pre-setup no partner was prepared yet: the guest's connected
  /// MigrRDMA peers are the ones to suspend.
  void fall_back_to_peers();
  /// Each partner, in order, suspends its traffic toward the guest with
  /// `on_wbs` as its WBS callback; with `harvest` (the peer is dead, there
  /// is nothing to wait for) it then harvests its in-flight WRs at once.
  void suspend_partners(const std::function<void()>& on_wbs, bool harvest);
  /// §3.4 buggy-network escape on every partner still waiting.
  void force_partner_wbs();
  void clear_wbs_callbacks();

  // ---- commit and resume ----
  /// The commit point: the source releases the guest, the staged RDMA state
  /// takes the final image, the destination adopts the guest, and every
  /// partner switches to its replacement QPs (its sends to the guest held
  /// until resume). Past it nothing rolls back. Returns the RDMA cost.
  common::Result<sim::DurationNs> commit(Section final_rdma);
  bool committed() const noexcept { return committed_; }
  /// The guest runs again on the destination (step 7).
  common::Status resume();
  /// Every partner sends its held sends to the guest: at resume, or when a
  /// move fails past its commit and the guest never resumes. Every partner
  /// is released; the first error is returned.
  common::Status release_partners();

  // ---- rollback, before the commit ----
  /// Migration abort: each partner in turn clears its WBS callback, drops
  /// its prepared QPs and lifts its suspension; then the source thaws, the
  /// guest's suspension lifts, and the staged resources go.
  void abort();
  /// Ending FT protection: every partner drops its prepared QPs and the
  /// staged resources go. Partners were not suspended; nothing else moves.
  void unstage();

  // ---- observability ----
  /// Draw the move's trace id and root span and emit the root instant, which
  /// every span of the move ultimately parents to; the mux carries it.
  void trace_root(sim::TimeNs at, std::string_view name, std::string args);
  /// The move's causal scope; zero ids when tracing was off at trace_root.
  obs::TraceContext trace_ctx() const noexcept { return {trace_id_, root_span_}; }
  /// Spans and instants in the owner's category. Each draws a fresh id and
  /// parent-links to the current TraceContext: spans emitted inside a
  /// ctrl-message handler link back to the sender's span (the fabric
  /// installs the piggybacked context); the rest are roots.
  void span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
            std::string args = {}) const;
  void instant(sim::TimeNs at, std::string_view name, std::string args = {}) const;
  /// Blackout slices nest under the workflow spans on their own
  /// "migr.blackout" track (one lane for migration and failover anatomy).
  static void blackout_span(sim::TimeNs start, sim::DurationNs dur, std::string_view name,
                            std::string args = {});
  /// Start the blackout waterfall at `at`, appending to `out`.
  void open_slices(std::vector<PhaseSlice>& out, sim::TimeNs at);
  /// The one record of a blackout step: append the slice at the cursor, emit
  /// its blackout span and, with the recorder armed, record [cursor, cursor +
  /// dur) as a `cls` interval labelled with the slice name (`slack` records
  /// none: the mux's chunks, or nothing, explain that time). Then advance the
  /// cursor; callers supply durations only, so contiguity is by construction.
  void push_slice(std::string name, sim::DurationNs dur, obs::EdgeClass cls,
                  std::string detail = {});
  sim::TimeNs slice_cursor() const noexcept { return wf_cursor_; }
  /// Causal intervals of the blackout; records nothing until enabled.
  obs::CpRecorder& cp() noexcept { return cp_; }
  /// Resolve the recorder over [from, to] into `out`, when it is enabled
  /// and the window has both edges.
  void resolve_cp(obs::CriticalPath& out, sim::TimeNs from, sim::TimeNs to) const;

  GuestId id() const noexcept { return id_; }
  GuestContext& guest() noexcept { return *guest_; }
  MigrRdmaRuntime& src_rt() noexcept { return *src_rt_; }
  MigrRdmaRuntime& dest_rt() noexcept { return *dest_rt_; }
  /// The guest's process on the source, which it keeps past the commit.
  proc::SimProcess& src_proc() noexcept { return *src_proc_; }
  proc::SimProcess& dest_proc() noexcept { return *dest_proc_; }
  criu::Checkpointer& ckpt() noexcept { return *ckpt_; }
  criu::Restorer& restorer() noexcept { return *restorer_; }
  Plugin& plugin() noexcept { return plugin_; }
  TransferMux& mux() noexcept { return *mux_; }

 private:
  GuestContext* find(GuestId id) const;

  sim::EventLoop& loop_;
  net::Fabric& fabric_;
  GuestDirectory& directory_;
  const char* cat_;
  rnic::Psn psn_cursor_;
  criu::CriuCosts criu_costs_;
  Plugin plugin_;

  GuestId id_ = 0;
  GuestContext* guest_ = nullptr;
  MigrRdmaRuntime* src_rt_ = nullptr;
  MigrRdmaRuntime* dest_rt_ = nullptr;
  proc::SimProcess* src_proc_ = nullptr;
  proc::SimProcess* dest_proc_ = nullptr;
  std::unique_ptr<criu::Checkpointer> ckpt_;
  std::unique_ptr<criu::Restorer> restorer_;
  std::set<proc::VirtAddr> pinned_;
  std::vector<GuestId> partners_;
  bool committed_ = false;

  std::uint64_t trace_id_ = 0;
  std::uint64_t root_span_ = 0;
  std::vector<PhaseSlice>* slices_ = nullptr;
  sim::TimeNs wf_cursor_ = 0;  // end of the last slice
  // Before the mux: the mux records into it, and members are destroyed in
  // reverse order.
  obs::CpRecorder cp_;
  std::unique_ptr<TransferMux> mux_;
};

}  // namespace migr::migrlib
