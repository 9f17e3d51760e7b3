// Source-side checkpointing (CRIU "dump" analogue) and destination-side
// restoration with the partial/full restore split MigrRDMA adds (paper §4).
//
// Restore model, mirroring CRIU's pre-copy behaviour described in §2.2/§3.2:
//  * Most VMAs are first materialized at a *temporary* ("staging") address
//    and only mremap()ed to the application's original addresses during the
//    final restore iteration.
//  * VMAs the plugin *pins* (the RDMA-related memory structures) are mapped
//    directly at their original virtual addresses before memory restoration
//    starts, so MRs can be registered during pre-copy.
//  * The restorer's own temporary memory occupies the address range the
//    source's allocator hands out next — so a VMA created on the source
//    during pre-copy (a freshly registered MR) can conflict with it. Such
//    pinned VMAs are deferred: mapped at their original address only at the
//    end of full restore, after the temporary memory is released (§3.2
//    "we restore the conflicting MRs at the end of stop-and-copy").
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "criu/image.hpp"
#include "proc/process.hpp"
#include "sim/time.hpp"

namespace migr::criu {

struct CriuCosts {
  sim::DurationNs freeze = sim::msec(2);
  // Fixed per-invocation overhead: seizing the task, walking /proc,
  // writing image headers.
  sim::DurationNs dump_base = sim::msec(12);
  // Dumping is per-VMA with a superlinear term: CRIU's handling of "large
  // and complicated memory structures" is inefficient (paper §5.2, citing
  // MigrOS's report), so DumpOthers grows faster than linearly in #VMAs.
  sim::DurationNs per_vma_dump = sim::usec(6);
  double vma_superlinear = 1.0 / 384.0;
  sim::DurationNs per_page_dump = 250;
  sim::DurationNs per_vma_restore = sim::usec(5);
  sim::DurationNs per_page_restore = 300;
  sim::DurationNs per_vma_remap = sim::usec(2);
  // Non-memory task restore during the final iteration (fds, creds, timers,
  // namespaces — the dominant constant in container restore).
  sim::DurationNs final_restore_base = sim::msec(80);
  std::uint64_t temp_bytes = 32ull << 20;  // restorer scratch arena

  sim::DurationNs dump_cost(std::size_t nvmas, std::size_t npages) const {
    const double factor = 1.0 + static_cast<double>(nvmas) * vma_superlinear;
    return dump_base +
           static_cast<sim::DurationNs>(static_cast<double>(per_vma_dump) *
                                        static_cast<double>(nvmas) * factor) +
           per_page_dump * static_cast<sim::DurationNs>(npages);
  }
};

/// Source-side dumper. The first dump is a full dump; later dumps carry
/// only pages dirtied since the previous one (soft-dirty pre-copy).
class Checkpointer {
 public:
  explicit Checkpointer(proc::SimProcess& src, CriuCosts costs = {})
      : src_(src), costs_(costs) {}

  struct Dump {
    MemoryImage image;   // current VMA table (full, every round)
    PageSet pages;       // full on round 0, dirty-only afterwards
    sim::DurationNs cost = 0;
    bool final = false;
  };

  /// Iterative pre-dump; the process keeps running.
  Dump pre_dump();

  /// Final dump during stop-and-copy; requires the process to be frozen.
  common::Result<Dump> final_dump();

  /// Post-copy variant of the final dump: captures the VMA table and the
  /// *addresses* of pages not yet transferred, but no page contents — those
  /// stay on the source and are fetched after resume. Cost therefore skips
  /// the per-page term, which is exactly where post-copy wins blackout.
  struct LazyDump {
    MemoryImage image;
    std::vector<proc::VirtAddr> missing;  // sorted page addresses
    sim::DurationNs cost = 0;
  };
  common::Result<LazyDump> final_dump_lazy();

  /// Pages currently dirty (peek — does not clear), for the pre-copy
  /// convergence decision.
  std::size_t pending_dirty() const { return src_.mem().dirty_count(); }

  /// Epoch-scoped incremental dump for continuous fault tolerance
  /// (COLO/Remus micro-checkpointing). Epoch 0 is a full dump; every later
  /// epoch ships only pages dirtied since the previous epoch was captured —
  /// a quiet guest's steady-state epochs are near-empty. Requires a frozen
  /// process (the FT controller brief-freezes per epoch), and charges the
  /// freeze cost like final_dump(); unlike final_dump() it does not mark
  /// the dump terminal, so epochs keep flowing for the guest's lifetime.
  struct EpochDump {
    std::uint64_t epoch = 0;  // 0 = full image, N>0 = incremental
    MemoryImage image;        // current VMA table (full, every epoch)
    PageSet pages;            // full on epoch 0, dirty-only afterwards
    sim::DurationNs cost = 0;
  };
  common::Result<EpochDump> epoch_dump();
  std::uint64_t epochs_dumped() const noexcept { return epoch_; }

  const CriuCosts& costs() const { return costs_; }

 private:
  Dump dump_common(bool full);

  proc::SimProcess& src_;
  CriuCosts costs_;
  bool first_done_ = false;
  std::uint64_t epoch_ = 0;
};

/// Destination-side restorer.
class Restorer {
 public:
  Restorer(proc::SimProcess& dst, CriuCosts costs = {}) : dst_(dst), costs_(costs) {}

  struct Report {
    sim::DurationNs cost = 0;
    std::vector<VmaImage> deferred;  // pinned VMAs that conflicted with temp
  };

  /// Partial restore: set up the address space from the first image.
  /// `pinned` lists VMA start addresses that must sit at their original
  /// virtual addresses immediately (RDMA memory structures, per plugin).
  common::Result<Report> begin(const MemoryImage& image,
                               const std::set<proc::VirtAddr>& pinned);

  /// Merge a later pre-copy round: new VMAs appear, dead VMAs vanish,
  /// dirty pages overwrite. Safe to call any number of times.
  common::Result<Report> update(const MemoryImage& image,
                                const std::set<proc::VirtAddr>& pinned);

  /// Apply page contents (full or dirty set). Pages land wherever their VMA
  /// currently lives (original address if pinned, staging otherwise);
  /// pages of deferred VMAs are buffered until finish().
  common::Result<Report> apply_pages(const PageSet& set);

  /// Full restore: remap staged VMAs to original addresses, release the
  /// restorer's temporary memory, map deferred VMAs, restore the task.
  common::Result<Report> finish();

  /// Where `orig` currently lives in the destination address space
  /// (identity for pinned, staging offset otherwise, 0 if deferred/unknown).
  proc::VirtAddr current_addr(proc::VirtAddr orig) const;

  bool started() const noexcept { return started_; }
  bool finished() const noexcept { return finished_; }
  const CriuCosts& costs() const { return costs_; }

 private:
  enum class Placement { pinned, staged, deferred };
  struct Entry {
    VmaImage vma;
    Placement placement = Placement::staged;
    proc::VirtAddr staged_at = 0;
  };

  common::Result<Report> place_vmas(const MemoryImage& image,
                                    const std::set<proc::VirtAddr>& pinned, bool initial);
  common::Status place_one(const VmaImage& vma, bool pin, Report& report);

  proc::SimProcess& dst_;
  CriuCosts costs_;
  bool started_ = false;
  bool finished_ = false;
  proc::VirtAddr temp_base_ = 0;
  std::uint64_t latest_cursor_ = 0;
  proc::VirtAddr staging_cursor_ = 0x5000'0000'0000ULL;
  std::unordered_map<proc::VirtAddr, Entry> entries_;  // keyed by original start
  struct DeferredPage {
    proc::VirtAddr addr = 0;
    common::Bytes data;
  };
  std::vector<DeferredPage> deferred_pages_;
};

}  // namespace migr::criu
