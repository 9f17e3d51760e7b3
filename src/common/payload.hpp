// Zero-copy packet payloads and page-table blocks.
//
// A PayloadRef is a refcounted (offset, length) view into a pooled buffer
// block. The sending NIC DMA-reads each packet into a block of its own, and
// the packet's body carries that block to the receiver without a copy.
// Blocks come from a size-classed free-list pool, so steady-state traffic
// allocates nothing.
//
// A PageBlock is the one owner of a block of the pool's 4 KiB class: a page
// slot of proc::AddressSpace. A landing DMA whose payload is a whole such
// block with no other reference hands the block to the page table
// (PayloadRef::hand_over) and the displaced page goes back to the pool for
// the sender's next packet: one block for one, so the pool's population
// stays fixed. A page's first block comes from the heap and an unmapped
// page returns to it, so mapping memory neither drains nor grows the pool.
//
// Refcounts are NOT atomic: like the EventLoop, payloads belong to one
// simulation thread. The pool is thread_local so independent loops on
// different threads (some tests do this) stay safe.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "common/bytes.hpp"

namespace migr::common {

namespace detail {

struct PayloadBlock {
  std::uint32_t refs;
  std::uint32_t capacity;
};

PayloadBlock* payload_block_alloc(std::size_t n);
void payload_block_free(PayloadBlock* b) noexcept;
// Page blocks bypass the pool: zeroed from the heap, freed to the heap.
PayloadBlock* page_block_new();
void page_block_delete(PayloadBlock* b) noexcept;

inline std::uint8_t* payload_block_data(PayloadBlock* b) noexcept {
  return reinterpret_cast<std::uint8_t*>(b + 1);
}

}  // namespace detail

/// Bytes of a page block: the pool's 4 KiB size class.
inline constexpr std::size_t kPageBlockBytes = 4096;

/// The sole owner of one page-size block (see the header comment). One
/// pointer wide; its block's refcount stays 1.
class PageBlock {
 public:
  PageBlock() = default;
  PageBlock(PageBlock&& o) noexcept : block_(std::exchange(o.block_, nullptr)) {}
  PageBlock& operator=(PageBlock&& o) noexcept {
    if (this != &o) {
      detail::page_block_delete(block_);
      block_ = std::exchange(o.block_, nullptr);
    }
    return *this;
  }
  ~PageBlock() { detail::page_block_delete(block_); }

  /// A zero-filled block from the heap.
  static PageBlock zeroed() {
    PageBlock p;
    p.block_ = detail::page_block_new();
    return p;
  }

  explicit operator bool() const noexcept { return block_ != nullptr; }
  std::span<std::uint8_t, kPageBlockBytes> bytes() noexcept {
    return std::span<std::uint8_t, kPageBlockBytes>(detail::payload_block_data(block_),
                                                     kPageBlockBytes);
  }
  const std::uint8_t* data() const noexcept {
    return detail::payload_block_data(block_);
  }

 private:
  friend class PayloadRef;
  detail::PayloadBlock* block_ = nullptr;
};

class PayloadRef {
 public:
  PayloadRef() = default;

  PayloadRef(const PayloadRef& o) noexcept : block_(o.block_), off_(o.off_), len_(o.len_) {
    if (block_ != nullptr) block_->refs++;
  }
  PayloadRef(PayloadRef&& o) noexcept : block_(o.block_), off_(o.off_), len_(o.len_) {
    o.block_ = nullptr;
    o.off_ = 0;
    o.len_ = 0;
  }
  PayloadRef& operator=(const PayloadRef& o) noexcept {
    if (this != &o) {
      release();
      block_ = o.block_;
      off_ = o.off_;
      len_ = o.len_;
      if (block_ != nullptr) block_->refs++;
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& o) noexcept {
    if (this != &o) {
      release();
      block_ = o.block_;
      off_ = o.off_;
      len_ = o.len_;
      o.block_ = nullptr;
      o.off_ = 0;
      o.len_ = 0;
    }
    return *this;
  }
  ~PayloadRef() { release(); }

  /// A fresh writable buffer of `n` bytes (uninitialized) from the pool.
  static PayloadRef alloc(std::size_t n) {
    if (n == 0) return {};
    return PayloadRef(detail::payload_block_alloc(n), 0, static_cast<std::uint32_t>(n));
  }

  /// A fresh buffer holding a copy of `src`.
  static PayloadRef copy_of(std::span<const std::uint8_t> src) {
    PayloadRef p = alloc(src.size());
    if (!src.empty()) std::memcpy(p.mutable_data(), src.data(), src.size());
    return p;
  }

  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }

  const std::uint8_t* data() const noexcept {
    return block_ == nullptr ? nullptr : detail::payload_block_data(block_) + off_;
  }
  /// Writable view. The caller must be the sole logical writer (fill the
  /// buffer before sharing slices of it).
  std::uint8_t* mutable_data() noexcept {
    return block_ == nullptr ? nullptr : detail::payload_block_data(block_) + off_;
  }

  std::span<const std::uint8_t> span() const noexcept { return {data(), len_}; }
  std::span<std::uint8_t> mutable_span() noexcept { return {mutable_data(), len_}; }
  /// Payloads convert to read-only spans so DMA/memory APIs take them as-is.
  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return span();
  }

  /// A view of [off, off+n) sharing this buffer (refcounted, no copy).
  PayloadRef slice(std::size_t off, std::size_t n) const noexcept {
    if (n == 0) return {};
    block_->refs++;
    return PayloadRef(block_, off_ + static_cast<std::uint32_t>(off),
                      static_cast<std::uint32_t>(n));
  }

  Bytes to_bytes() const { return Bytes(data(), data() + len_); }

  /// Whether this is the only reference to a whole page-size block, which
  /// can then change hands (hand_over) instead of being copied.
  bool sole_page_block() const noexcept {
    return block_ != nullptr && block_->refs == 1 && off_ == 0 && len_ == kPageBlockBytes &&
           block_->capacity == kPageBlockBytes;
  }

  /// Puts this payload's block into `page` and returns the block `page`
  /// held to the pool. Requires sole_page_block() and a non-empty `page`;
  /// leaves this ref empty.
  void hand_over(PageBlock& page) noexcept {
    assert(sole_page_block() && page);
    std::swap(block_, page.block_);
    len_ = 0;
    release();
  }

 private:
  PayloadRef(detail::PayloadBlock* block, std::uint32_t off, std::uint32_t len) noexcept
      : block_(block), off_(off), len_(len) {}

  void release() noexcept {
    if (block_ != nullptr && --block_->refs == 0) detail::payload_block_free(block_);
    block_ = nullptr;
  }

  detail::PayloadBlock* block_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

}  // namespace migr::common
