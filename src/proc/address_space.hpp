// Simulated process virtual memory.
//
// This substrate exists because MigrRDMA's hardest control-path problem
// (paper §3.2) is *where pages live during restore*: CRIU stages a restoring
// process's memory at a temporary virtual address and only remaps it to the
// application's original addresses in the final restore iteration, which
// breaks MR registration during pre-copy. To reproduce that, we need a real
// notion of VMAs, physical pages shared across remaps, page-granularity
// dirty tracking for iterative pre-copy, and NIC-initiated DMA that dirties
// pages behind the application's back.
//
// Each VMA owns a flat page table plus a dirty bitmap. A slot owns one
// 4 KiB block of the payload pool's page class (common::PageBlock),
// allocated zeroed from the heap on first write. A NIC landing whose
// payload is a whole page-aligned block with no other reference swaps that
// block into the slot instead of copying it, the way a DMA engine places
// bytes without the CPU. mremap() moves the VMA together with its table,
// so physical identity and dirty bits survive the move, exactly like the
// mremap(2) behaviour the paper relies on for on-chip memory and MR
// structures.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/payload.hpp"
#include "common/result.hpp"

namespace migr::proc {

using VirtAddr = std::uint64_t;

constexpr std::uint64_t kPageSize = 4096;

inline VirtAddr page_floor(VirtAddr a) { return a & ~(kPageSize - 1); }
inline VirtAddr page_ceil(VirtAddr a) { return page_floor(a + kPageSize - 1); }

static_assert(kPageSize == common::kPageBlockBytes, "a page slot holds one page block");

/// The bytes of one physical page.
using PageBytes = std::span<std::uint8_t, kPageSize>;

/// A virtual memory area: a contiguous, page-aligned mapping.
struct Vma {
  VirtAddr start = 0;
  std::uint64_t length = 0;  // bytes, page multiple
  std::string tag;           // who mapped it: "heap", "qp_buf", "criu_staging", ...

  VirtAddr end() const noexcept { return start + length; }
  bool contains(VirtAddr a, std::uint64_t len) const noexcept {
    return a >= start && a - start <= length && len <= length - (a - start);
  }
  bool overlaps(VirtAddr a, std::uint64_t len) const noexcept {
    return a < end() && a + len > start;
  }
};

class AddressSpace {
 public:
  /// Map [addr, addr+length) at a fixed address (MAP_FIXED semantics minus
  /// the clobbering: overlap with an existing VMA is an error).
  common::Status mmap_fixed(VirtAddr addr, std::uint64_t length, std::string tag);

  /// Map `length` bytes wherever there is room (bump allocation from a high
  /// "mmap region", like the kernel's mmap base).
  common::Result<VirtAddr> mmap(std::uint64_t length, std::string tag);

  /// Unmap an exact existing VMA (partial unmap unsupported, like early CRIU).
  common::Status munmap(VirtAddr addr);

  /// Move the VMA starting at old_addr to new_addr, preserving physical
  /// pages (and their dirty bits). Fails if the target range overlaps
  /// another VMA.
  common::Status mremap(VirtAddr old_addr, VirtAddr new_addr);

  bool mapped(VirtAddr addr, std::uint64_t length) const;
  const Vma* find_vma(VirtAddr addr) const;
  std::vector<Vma> vmas() const;

  /// Byte-granularity access; fails (permission_denied) and touches nothing
  /// unless the whole range is mapped, which a range that wraps past the top
  /// of the address space never is. Writes mark the touched pages dirty —
  /// this is what both application stores and NIC DMA go through, so
  /// one-sided WRITEs from a remote peer dirty pages the pre-copy loop will
  /// pick up.
  common::Status read(VirtAddr addr, std::span<std::uint8_t> out) const;
  common::Status write(VirtAddr addr, std::span<const std::uint8_t> in);
  /// The span write's contract, for a NIC landing. A whole page-aligned
  /// payload block with no other reference (PayloadRef::sole_page_block)
  /// lands by taking the place of an already written page's block, which
  /// goes back to the pool, and leaves `in` empty; anything else is copied.
  common::Status write(VirtAddr addr, common::PayloadRef&& in);

  /// Direct physical-page access for checkpoint/restore machinery: the page
  /// backing `page_addr`, materialized as a zero page if it was never
  /// written; nullopt if unmapped. Filling it neither dirties nor faults.
  /// The bytes stay valid across mremap, until the VMA is unmapped or a
  /// landing hands the slot another block.
  std::optional<PageBytes> page_at(VirtAddr page_addr);

  /// Dirty-page tracking for pre-copy. Returns addresses of dirty pages in
  /// ascending order; `clear` resets the bits (soft-dirty style).
  std::vector<VirtAddr> collect_dirty(bool clear = true);
  void mark_all_dirty();
  std::size_t dirty_count() const noexcept;

  /// Post-copy missing pages: a page marked missing is mapped but its
  /// authoritative contents still live on the migration source. Any
  /// read/write touching it first invokes the fault hook — the userfaultfd
  /// analogue — which is expected to fill the page through page_at, so the
  /// fill itself does not dirty or re-fault. The mark is cleared *before*
  /// the hook runs, so a hook that triggers nested access to the same page
  /// cannot recurse.
  using FaultHook = std::function<void(VirtAddr page)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  void mark_missing(VirtAddr page_addr) { missing_.insert(page_floor(page_addr)); }
  bool clear_missing(VirtAddr page_addr) {
    return missing_.erase(page_floor(page_addr)) > 0;
  }
  bool missing(VirtAddr page_addr) const {
    return missing_.contains(page_floor(page_addr));
  }
  std::size_t missing_count() const noexcept { return missing_.size(); }

  std::uint64_t mapped_bytes() const noexcept { return mapped_bytes_; }

  /// Bump-allocation cursor of mmap(). Checkpointed/restored by CRIU so a
  /// migrated process keeps allocating from where the source left off.
  VirtAddr mmap_cursor() const noexcept { return mmap_base_; }
  void set_mmap_cursor(VirtAddr v) noexcept { mmap_base_ = v; }

 private:
  /// A VMA and its page table. Slot i backs page vma.start + i * kPageSize;
  /// an empty slot was never written and reads as zeros. Bit i of `dirty` is
  /// that page's soft-dirty bit; `dirty_pages` counts the set bits.
  struct Mapping {
    Vma vma;
    std::vector<common::PageBlock> pages;
    std::vector<std::uint64_t> dirty;
    std::size_t dirty_pages = 0;

    PageBytes materialize(std::uint64_t idx) {
      auto& slot = pages[idx];
      if (!slot) slot = common::PageBlock::zeroed();
      return slot.bytes();
    }
    void mark_dirty(std::uint64_t idx) {
      std::uint64_t& word = dirty[idx / 64];
      const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
      if ((word & bit) == 0) {
        word |= bit;
        dirty_pages++;
      }
    }
  };

  bool range_free(VirtAddr addr, std::uint64_t len, const Mapping* ignore) const;
  void fault_in(VirtAddr page) const;

  std::map<VirtAddr, Mapping> vmas_;  // keyed by start
  // mutable: a read() of a missing page is logically const for the process
  // but must fill the page (demand paging), like a real MMU fault.
  mutable std::unordered_set<VirtAddr> missing_;
  FaultHook fault_hook_;
  VirtAddr mmap_base_ = 0x7f00'0000'0000ULL;
  std::uint64_t mapped_bytes_ = 0;
};

}  // namespace migr::proc
