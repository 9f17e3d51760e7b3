#include "criu/checkpoint.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace migr::criu {

using common::Errc;
using common::Result;
using common::Status;

// ---------------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------------

Checkpointer::Dump Checkpointer::dump_common(bool full) {
  Dump dump;
  auto& mem = src_.mem();
  for (const auto& vma : mem.vmas()) {
    dump.image.vmas.push_back(VmaImage{vma.start, vma.length, vma.tag});
  }
  dump.image.mmap_cursor = mem.mmap_cursor();

  std::vector<proc::VirtAddr> page_addrs;
  if (full) {
    for (const auto& vma : mem.vmas()) {
      for (proc::VirtAddr p = vma.start; p < vma.start + vma.length; p += proc::kPageSize) {
        page_addrs.push_back(p);
      }
    }
    // The full dump resets dirty tracking: everything is captured.
    mem.collect_dirty(/*clear=*/true);
  } else {
    page_addrs = mem.collect_dirty(/*clear=*/true);
  }
  // One uninitialized block holds every page: each is read straight from
  // the address space into its slot, with no per-page buffer or zero fill.
  if (!page_addrs.empty()) {
    dump.pages.storage =
        std::make_unique_for_overwrite<std::uint8_t[]>(page_addrs.size() * proc::kPageSize);
  }
  dump.pages.pages.reserve(page_addrs.size());
  std::uint8_t* slot = dump.pages.storage.get();
  for (proc::VirtAddr addr : page_addrs) {
    const std::span<std::uint8_t> page{slot, proc::kPageSize};
    if (mem.read(addr, page).is_ok()) {
      dump.pages.pages.push_back({addr, page});
      slot += proc::kPageSize;
    }
  }
  dump.cost = costs_.dump_cost(dump.image.vmas.size(), dump.pages.pages.size());
  return dump;
}

Checkpointer::Dump Checkpointer::pre_dump() {
  const bool full = !first_done_;
  first_done_ = true;
  return dump_common(full);
}

Result<Checkpointer::Dump> Checkpointer::final_dump() {
  if (!src_.frozen()) {
    return common::err(Errc::failed_precondition, "final dump requires a frozen process");
  }
  Dump dump = dump_common(!first_done_);
  first_done_ = true;
  dump.final = true;
  dump.cost += costs_.freeze;
  return dump;
}

Result<Checkpointer::EpochDump> Checkpointer::epoch_dump() {
  if (!src_.frozen()) {
    return common::err(Errc::failed_precondition, "epoch dump requires a frozen process");
  }
  const bool full = !first_done_;
  first_done_ = true;
  Dump d = dump_common(full);
  EpochDump out;
  out.epoch = epoch_++;
  out.image = std::move(d.image);
  out.pages = std::move(d.pages);
  out.cost = d.cost + costs_.freeze;
  return out;
}

Result<Checkpointer::LazyDump> Checkpointer::final_dump_lazy() {
  if (!src_.frozen()) {
    return common::err(Errc::failed_precondition, "final dump requires a frozen process");
  }
  LazyDump dump;
  auto& mem = src_.mem();
  for (const auto& vma : mem.vmas()) {
    dump.image.vmas.push_back(VmaImage{vma.start, vma.length, vma.tag});
  }
  dump.image.mmap_cursor = mem.mmap_cursor();
  if (!first_done_) {
    // No pre-copy pass ran: every mapped page is missing on the destination.
    for (const auto& vma : mem.vmas()) {
      for (proc::VirtAddr p = vma.start; p < vma.end(); p += proc::kPageSize) {
        dump.missing.push_back(p);
      }
    }
    mem.collect_dirty(/*clear=*/true);
  } else {
    dump.missing = mem.collect_dirty(/*clear=*/true);
  }
  first_done_ = true;
  dump.cost = costs_.dump_cost(dump.image.vmas.size(), 0) + costs_.freeze;
  return dump;
}

// ---------------------------------------------------------------------------
// Restorer
// ---------------------------------------------------------------------------

Status Restorer::place_one(const VmaImage& vma, bool pin, Report& report) {
  auto& mem = dst_.mem();
  Entry entry;
  entry.vma = vma;
  if (pin) {
    // Pinned VMAs must live at their original address now. If the range
    // collides with the restorer's temporary arena, defer to full restore.
    const bool conflicts = temp_base_ != 0 && vma.start < temp_base_ + costs_.temp_bytes &&
                           vma.start + vma.length > temp_base_;
    if (!conflicts && mem.mapped(vma.start, vma.length)) {
      // A plugin may have pre-mapped the range already (e.g. MigrRDMA maps
      // on-chip memory by alloc+mremap before memory restoration starts);
      // accept it as pinned without remapping.
      entry.placement = Placement::pinned;
      report.cost += costs_.per_vma_restore;
      entries_.emplace(vma.start, std::move(entry));
      return Status::ok();
    }
    if (conflicts) {
      entry.placement = Placement::deferred;
      report.deferred.push_back(vma);
      MIGR_DEBUG() << "vma @" << std::hex << vma.start
                   << " conflicts with restorer temp; deferred";
    } else {
      MIGR_RETURN_IF_ERROR(mem.mmap_fixed(vma.start, vma.length, vma.tag));
      entry.placement = Placement::pinned;
    }
  } else {
    entry.placement = Placement::staged;
    entry.staged_at = staging_cursor_;
    staging_cursor_ += proc::page_ceil(vma.length) + proc::kPageSize;
    MIGR_RETURN_IF_ERROR(mem.mmap_fixed(entry.staged_at, vma.length, vma.tag));
  }
  report.cost += costs_.per_vma_restore;
  entries_.emplace(vma.start, std::move(entry));
  return Status::ok();
}

Result<Restorer::Report> Restorer::place_vmas(const MemoryImage& image,
                                              const std::set<proc::VirtAddr>& pinned,
                                              bool initial) {
  Report report;
  latest_cursor_ = image.mmap_cursor;
  if (initial) {
    // The restorer's scratch arena sits exactly where the source process's
    // allocator will hand out its *next* mappings — the collision the paper
    // designs around (§3.2).
    temp_base_ = image.mmap_cursor;
    MIGR_RETURN_IF_ERROR(dst_.mem().mmap_fixed(temp_base_, costs_.temp_bytes, "criu_temp"));
  }
  for (const auto& vma : image.vmas) {
    if (entries_.contains(vma.start)) continue;
    MIGR_RETURN_IF_ERROR(place_one(vma, pinned.contains(vma.start), report));
  }
  if (!initial) {
    // VMAs gone from the image were unmapped on the source; drop them.
    std::vector<proc::VirtAddr> dead;
    for (const auto& [start, entry] : entries_) {
      if (image.find(start) == nullptr) dead.push_back(start);
    }
    for (proc::VirtAddr start : dead) {
      const Entry& e = entries_.at(start);
      if (e.placement == Placement::pinned) (void)dst_.mem().munmap(start);
      if (e.placement == Placement::staged) (void)dst_.mem().munmap(e.staged_at);
      entries_.erase(start);
    }
  }
  return report;
}

Result<Restorer::Report> Restorer::begin(const MemoryImage& image,
                                         const std::set<proc::VirtAddr>& pinned) {
  if (started_) return common::err(Errc::failed_precondition, "restore already begun");
  started_ = true;
  return place_vmas(image, pinned, /*initial=*/true);
}

Result<Restorer::Report> Restorer::update(const MemoryImage& image,
                                          const std::set<proc::VirtAddr>& pinned) {
  if (!started_) return common::err(Errc::failed_precondition, "begin() first");
  if (finished_) return common::err(Errc::failed_precondition, "already finished");
  return place_vmas(image, pinned, /*initial=*/false);
}

Result<Restorer::Report> Restorer::apply_pages(const PageSet& set) {
  if (!started_) return common::err(Errc::failed_precondition, "begin() first");
  Report report;
  auto& mem = dst_.mem();
  const Entry* owner = nullptr;
  for (const auto& page : set.pages) {
    // Pages come in address order, so a page usually shares its
    // predecessor's VMA; otherwise look it up (entries are keyed by start).
    if (owner == nullptr || page.addr < owner->vma.start ||
        page.addr - owner->vma.start >= owner->vma.length) {
      owner = nullptr;
      auto it = entries_.find(page.addr);
      if (it != entries_.end()) {
        owner = &it->second;
      } else {
        for (const auto& [start, entry] : entries_) {
          if (page.addr >= start && page.addr < start + entry.vma.length) {
            owner = &entry;
            break;
          }
        }
      }
    }
    if (owner == nullptr) {
      MIGR_DEBUG() << "page @" << std::hex << page.addr << " has no vma; dropped";
      continue;
    }
    switch (owner->placement) {
      case Placement::pinned:
        MIGR_RETURN_IF_ERROR(mem.write(page.addr, page.data));
        break;
      case Placement::staged:
        MIGR_RETURN_IF_ERROR(
            mem.write(owner->staged_at + (page.addr - owner->vma.start), page.data));
        break;
      case Placement::deferred:
        // Kept past this call, unlike the set's views: the one owned copy.
        deferred_pages_.push_back({page.addr, common::Bytes(page.data.begin(), page.data.end())});
        break;
    }
    report.cost += costs_.per_page_restore;
  }
  return report;
}

Result<Restorer::Report> Restorer::finish() {
  if (!started_) return common::err(Errc::failed_precondition, "begin() first");
  if (finished_) return common::err(Errc::failed_precondition, "already finished");
  finished_ = true;
  Report report;
  auto& mem = dst_.mem();

  // Release the scratch arena first: deferred VMAs land in its range.
  MIGR_RETURN_IF_ERROR(mem.munmap(temp_base_));

  for (auto& [start, entry] : entries_) {
    switch (entry.placement) {
      case Placement::staged:
        // The final iteration remaps staging to the application's original
        // virtual addresses (CRIU behaviour the paper describes in §2.2).
        MIGR_RETURN_IF_ERROR(mem.mremap(entry.staged_at, start));
        entry.placement = Placement::pinned;
        report.cost += costs_.per_vma_remap;
        break;
      case Placement::deferred:
        MIGR_RETURN_IF_ERROR(mem.mmap_fixed(start, entry.vma.length, entry.vma.tag));
        entry.placement = Placement::pinned;
        report.deferred.push_back(entry.vma);  // now mapped; caller re-registers MRs
        report.cost += costs_.per_vma_restore;
        break;
      case Placement::pinned:
        break;
    }
  }
  for (const auto& page : deferred_pages_) {
    MIGR_RETURN_IF_ERROR(mem.write(page.addr, page.data));
    report.cost += costs_.per_page_restore;
  }
  deferred_pages_.clear();
  mem.set_mmap_cursor(latest_cursor_);
  report.cost += costs_.final_restore_base;
  return report;
}

proc::VirtAddr Restorer::current_addr(proc::VirtAddr orig) const {
  for (const auto& [start, entry] : entries_) {
    if (orig < start || orig >= start + entry.vma.length) continue;
    switch (entry.placement) {
      case Placement::pinned:
        return orig;
      case Placement::staged:
        return finished_ ? orig : entry.staged_at + (orig - start);
      case Placement::deferred:
        return finished_ ? orig : 0;
    }
  }
  return 0;
}

}  // namespace migr::criu
