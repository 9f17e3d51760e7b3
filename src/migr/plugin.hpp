// MigrRDMA Plugin: the CRIU-plugin half of the system (paper Fig. 2a).
//
// One Plugin instance drives the RDMA side of one migration: it pre-dumps
// and final-dumps the RDMA state through the indirection layer on the
// source, and on the destination it (1) pre-maps RDMA memory structures
// before CRIU's memory restoration starts, (2) computes which VMAs CRIU
// must pin at their original addresses, (3) runs the RDMA pre-setup
// (StagedRestore), and (4) applies the stop-and-copy fixups.
#pragma once

#include <memory>
#include <set>

#include "criu/checkpoint.hpp"
#include "migr/guest_lib.hpp"
#include "migr/staged_restore.hpp"

namespace migr::migrlib {

/// Cost model for the MigrRDMA-specific dump/restore steps (the RDMA
/// resource metadata the indirection layer serializes; restore costs come
/// from the RNIC CostModel via Context::take_ctrl_cost).
struct MigrCosts {
  sim::DurationNs dump_base = sim::usec(80);
  sim::DurationNs dump_per_qp = 1500;  // ~1.5 us of metadata per QP
  sim::DurationNs dump_per_mr = sim::usec(1);
  sim::DurationNs dump_per_other = sim::usec(1);

  sim::DurationNs dump_cost(const RdmaImage& img) const {
    return dump_base +
           dump_per_qp * static_cast<sim::DurationNs>(img.qps.size()) +
           dump_per_mr * static_cast<sim::DurationNs>(img.mrs.size()) +
           dump_per_other *
               static_cast<sim::DurationNs>(img.cqs.size() + img.pds.size() +
                                            img.srqs.size() + img.mws.size() +
                                            img.dms.size() + img.channels.size());
  }
};

class Plugin {
 public:
  explicit Plugin(MigrCosts costs = {}) : costs_(costs) {}

  // ---- source side ----
  /// Serialize the full RDMA state (start of pre-copy, Fig. 2b step 1').
  common::Bytes pre_dump(GuestContext& guest);
  /// Serialize the difference + WBS residue (stop-and-copy, step 5').
  common::Bytes final_dump(GuestContext& guest);

  // ---- destination side ----
  /// VMAs CRIU must pin at original addresses: those containing MR buffers,
  /// QP queue mappings, or on-chip memory windows (§3.2). Derived purely
  /// from the checkpoint images, as the real plugin does.
  static std::set<proc::VirtAddr> pinned_vma_starts(const criu::MemoryImage& mem,
                                                    const RdmaImage& rdma);

  /// Partial restore (steps 2/2'): pre-map device memory, then run the RDMA
  /// pre-setup against the destination runtime. Call after parsing the
  /// pre-dump bytes and *after* CRIU applied the first page set.
  common::Status pre_setup(std::span<const std::uint8_t> predump_bytes,
                           MigrRdmaRuntime& dest_rt, proc::SimProcess& dest_proc);
  /// Device-memory pre-map only — must run before criu::Restorer::begin.
  common::Status premap(std::span<const std::uint8_t> predump_bytes, MigrRdmaRuntime& dest_rt,
                        proc::SimProcess& dest_proc);

  StagedRestore& staged() noexcept { return staged_; }
  const RdmaImage& predump_image() const noexcept { return predump_image_; }

  /// Abort-path cleanup: tear down whatever was staged on the destination.
  /// Must not be called after full_restore handed the staged resources to
  /// the guest (past that commit point the controller fails hard instead).
  void abort_staged() {
    staged_.abandon();
    premapped_ = false;
  }

  /// Full restore (steps 6/6'->7): adopt staged resources into the guest
  /// and apply the final fixups/replays.
  common::Status full_restore(GuestContext& guest, std::span<const std::uint8_t> final_bytes,
                              MigrRdmaRuntime& dest_rt);

  /// Simulated time consumed by plugin work since the last call.
  sim::DurationNs take_cost() {
    auto c = cost_;
    cost_ = 0;
    return c;
  }

 private:
  MigrCosts costs_;
  StagedRestore staged_;
  RdmaImage predump_image_;
  bool premapped_ = false;
  sim::DurationNs cost_ = 0;
};

}  // namespace migr::migrlib
