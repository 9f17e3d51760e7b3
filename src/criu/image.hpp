// Checkpoint image format: VMA tables and page sets, serialized with the
// common byte format because images cross the (simulated) network between
// migration source and destination.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "proc/address_space.hpp"

namespace migr::criu {

struct VmaImage {
  proc::VirtAddr start = 0;
  std::uint64_t length = 0;
  std::string tag;
};

/// The memory-structure part of a checkpoint: the VMA table plus the
/// process's mmap allocation cursor (needed so the restored process keeps
/// allocating from where the source left off — and so the restorer knows
/// which address range its own temporary memory will collide with).
struct MemoryImage {
  std::vector<VmaImage> vmas;
  std::uint64_t mmap_cursor = 0;

  std::size_t serialized_size() const;
  void serialize_into(common::ByteWriter& w) const;
  common::Bytes serialize() const;
  static common::Result<MemoryImage> parse(std::span<const std::uint8_t> data);

  const VmaImage* find(proc::VirtAddr start) const {
    for (const auto& v : vmas) {
      if (v.start == start) return &v;
    }
    return nullptr;
  }
};

/// A batch of page contents keyed by original virtual address. The first
/// pre-copy round carries every page; later rounds carry only dirty pages.
///
/// Pages are views, never per-page buffers. A dump's pages view `storage`,
/// the one block the checkpointer read them into; a parsed set's pages view
/// the buffer it was parsed from, which must outlive the set.
struct PageSet {
  struct Page {
    proc::VirtAddr addr = 0;
    std::span<const std::uint8_t> data;  // exactly kPageSize
  };
  std::vector<Page> pages;
  std::unique_ptr<std::uint8_t[]> storage;  // null unless the set owns its pages

  std::uint64_t byte_size() const { return pages.size() * proc::kPageSize; }

  std::size_t serialized_size() const {
    return 4 + pages.size() * (8 + proc::kPageSize);
  }
  void serialize_into(common::ByteWriter& w) const;
  common::Bytes serialize() const;
  static common::Result<PageSet> parse(std::span<const std::uint8_t> data);
  /// The parsed pages would view a buffer that dies with the statement.
  static common::Result<PageSet> parse(common::Bytes&&) = delete;
};

}  // namespace migr::criu
