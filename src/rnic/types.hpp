// Core verbs-level types mirroring the ib_verbs surface the paper
// manipulates: QP numbers and access keys are NIC-assigned opaque values —
// the exact values MigrRDMA must virtualize because they differ between the
// migration source's NIC and the destination's.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>

#include "net/fabric.hpp"
#include "proc/address_space.hpp"
#include "sim/time.hpp"

namespace migr::rnic {

/// 24-bit queue-pair number, unique per device (InfiniBand spec §3.5.3).
using Qpn = std::uint32_t;
constexpr Qpn kQpnMask = 0xFF'FFFF;

/// Local / remote memory access keys, NIC-assigned.
using Lkey = std::uint32_t;
using Rkey = std::uint32_t;

/// Packet sequence number (24-bit in hardware; we keep 64-bit monotonic
/// internally and never wrap — simpler and equivalent for simulation).
using Psn = std::uint64_t;

using Handle = std::uint32_t;  // context-local object handle (PD/CQ/...)

enum class QpType : std::uint8_t { rc, ud };
constexpr QpType kLastQpType = QpType::ud;

/// InfiniBand QP state machine (spec §10.3).
enum class QpState : std::uint8_t { reset, init, rtr, rts, sqd, sqe, err };

/// MR/MW access permissions, same semantics as IBV_ACCESS_*.
enum Access : std::uint32_t {
  kAccessNone = 0,
  kAccessLocalWrite = 1u << 0,
  kAccessRemoteWrite = 1u << 1,
  kAccessRemoteRead = 1u << 2,
  kAccessRemoteAtomic = 1u << 3,
  kAccessMwBind = 1u << 4,
};

enum class WrOpcode : std::uint8_t {
  send,
  send_with_imm,
  rdma_write,
  rdma_write_with_imm,
  rdma_read,
  atomic_cmp_and_swp,
  atomic_fetch_and_add,
  bind_mw,
};
constexpr WrOpcode kLastWrOpcode = WrOpcode::bind_mw;

inline bool is_one_sided(WrOpcode op) {
  return op == WrOpcode::rdma_write || op == WrOpcode::rdma_write_with_imm ||
         op == WrOpcode::rdma_read || op == WrOpcode::atomic_cmp_and_swp ||
         op == WrOpcode::atomic_fetch_and_add;
}
inline bool is_two_sided(WrOpcode op) {
  return op == WrOpcode::send || op == WrOpcode::send_with_imm;
}

enum class CqeStatus : std::uint8_t {
  success,
  local_protection_err,  // bad lkey / unmapped buffer
  remote_access_err,     // bad rkey on the responder
  retry_exceeded,        // peer unreachable
  wr_flush_err,          // QP transitioned to error, WR flushed
};
constexpr CqeStatus kLastCqeStatus = CqeStatus::wr_flush_err;

enum class CqeOpcode : std::uint8_t {
  send,
  rdma_write,
  rdma_read,
  atomic,
  bind_mw,
  recv,  // receive completion (two-sided or write-with-imm)
};
constexpr CqeOpcode kLastCqeOpcode = CqeOpcode::recv;

/// QP queue capacities.
struct QpCaps {
  std::uint32_t max_send_wr = 128;
  std::uint32_t max_recv_wr = 128;
};

/// RNR wait: a responder that finds no receive WQE for an incoming message
/// answers with an RNR NAK, and the requester emits nothing on the QP for
/// this long before it retransmits. 0.64 ms is the min_rnr_timer perftest
/// and rdma-core's pingpong examples configure.
constexpr sim::DurationNs kRnrHold = sim::usec(640);

/// Scatter/gather element.
struct Sge {
  proc::VirtAddr addr = 0;
  std::uint32_t length = 0;
  Lkey lkey = 0;
};

/// Scatter/gather list of at most kCapacity entries. Every post moves its WR
/// into a device ring slot, and nearly every WR carries one SGE, so the
/// first kInline entries live inline; a list that grows past them spills to
/// one heap block of kCapacity entries, and a move hands that block over.
/// Copy, move, assignment, resize and push_back touch only the size()
/// entries in use. kCapacity is double the device's 16-SGE validation
/// limit so an over-limit post is still representable (and rejected with a
/// Status by validate_sges) instead of asserting here.
class SgeList {
 public:
  static constexpr std::size_t kCapacity = 32;
  static constexpr std::size_t kInline = 2;

  // User-provided, so that even a value-initialized list leaves its inline
  // storage unwritten.
  SgeList() noexcept {}
  SgeList(std::initializer_list<Sge> init) { assign(init.begin(), init.size()); }
  SgeList(const SgeList& o) { assign(o.data(), o.len_); }
  SgeList(SgeList&& o) noexcept { take(o); }
  ~SgeList() { release(); }

  SgeList& operator=(const SgeList& o) {
    if (this != &o) assign(o.data(), o.len_);
    return *this;
  }
  SgeList& operator=(SgeList&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  SgeList& operator=(std::initializer_list<Sge> init) {
    assign(init.begin(), init.size());
    return *this;
  }

  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  void clear() noexcept { len_ = 0; }
  void push_back(const Sge& s) {
    assert(len_ < kCapacity);
    reserve(len_ + 1);
    std::construct_at(data() + len_, s);
    ++len_;
  }
  /// vector-compatible resize: grown entries are default Sge{}.
  void resize(std::size_t n) {
    assert(n <= kCapacity);
    reserve(n);
    for (std::size_t i = len_; i < n; ++i) std::construct_at(data() + i);
    len_ = static_cast<std::uint32_t>(n);
  }

  Sge* data() noexcept { return heap_ != nullptr ? heap_ : inline_data(); }
  const Sge* data() const noexcept { return heap_ != nullptr ? heap_ : inline_data(); }
  Sge* begin() noexcept { return data(); }
  Sge* end() noexcept { return data() + len_; }
  const Sge* begin() const noexcept { return data(); }
  const Sge* end() const noexcept { return data() + len_; }
  Sge& operator[](std::size_t i) noexcept { return data()[i]; }
  const Sge& operator[](std::size_t i) const noexcept { return data()[i]; }

  operator std::span<Sge>() noexcept { return {data(), len_}; }
  operator std::span<const Sge>() const noexcept { return {data(), len_}; }

 private:
  Sge* inline_data() noexcept { return std::launder(reinterpret_cast<Sge*>(inline_)); }
  const Sge* inline_data() const noexcept {
    return std::launder(reinterpret_cast<const Sge*>(inline_));
  }

  // Makes room for n entries, spilling the inline ones to a heap block the
  // first time n passes kInline.
  void reserve(std::size_t n) {
    if (n <= kInline || heap_ != nullptr) return;
    Sge* block = std::allocator<Sge>{}.allocate(kCapacity);
    std::uninitialized_copy_n(inline_data(), len_, block);
    heap_ = block;
  }
  void release() noexcept {
    if (heap_ != nullptr) std::allocator<Sge>{}.deallocate(heap_, kCapacity);
    heap_ = nullptr;
  }
  void assign(const Sge* src, std::size_t n) {
    assert(n <= kCapacity);
    reserve(n);
    std::uninitialized_copy_n(src, n, data());
    len_ = static_cast<std::uint32_t>(n);
  }
  // Takes o's entries, its heap block itself if it has one, and leaves o
  // empty and inline. This list must own no heap block.
  void take(SgeList& o) noexcept {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      o.heap_ = nullptr;
    } else {
      std::uninitialized_copy_n(o.inline_data(), o.len_, inline_data());
    }
    len_ = o.len_;
    o.len_ = 0;
  }

  Sge* heap_ = nullptr;  // kCapacity entries once the list has spilled
  std::uint32_t len_ = 0;
  // Storage for the first kInline entries; only [0, len_) is ever written.
  alignas(Sge) unsigned char inline_[kInline * sizeof(Sge)];
};

/// Send-queue work request (ibv_send_wr).
struct SendWr {
  std::uint64_t wr_id = 0;
  WrOpcode opcode = WrOpcode::send;
  SgeList sge;
  bool signaled = true;

  // RDMA one-sided
  proc::VirtAddr remote_addr = 0;
  Rkey rkey = 0;

  // Atomics (8-byte operand at remote_addr)
  std::uint64_t compare_add = 0;
  std::uint64_t swap = 0;

  // Immediate data
  std::uint32_t imm = 0;

  // UD addressing (address handle fields)
  net::HostId remote_host = 0;
  Qpn remote_qpn = 0;

  std::uint64_t total_length() const {
    std::uint64_t n = 0;
    for (const auto& s : sge) n += s.length;
    return n;
  }
};

// A post moves the WR into its ring slot: keep the one-SGE WR small.
static_assert(sizeof(SendWr) <= 128, "SendWr outgrew its post-path budget");

/// Receive-queue work request (ibv_recv_wr).
struct RecvWr {
  std::uint64_t wr_id = 0;
  SgeList sge;

  std::uint64_t total_length() const {
    std::uint64_t n = 0;
    for (const auto& s : sge) n += s.length;
    return n;
  }
};

static_assert(sizeof(RecvWr) <= 64, "RecvWr outgrew its post-path budget");

/// Completion-queue entry (ibv_wc).
struct Cqe {
  std::uint64_t wr_id = 0;
  CqeStatus status = CqeStatus::success;
  CqeOpcode opcode = CqeOpcode::send;
  std::uint32_t byte_len = 0;
  Qpn qpn = 0;  // local QP the completed WR belongs to — the field MigrRDMA
                // must translate physical->virtual on every poll (§3.3)
  bool has_imm = false;
  std::uint32_t imm = 0;
  Qpn src_qp = 0;  // source QPN for UD receives
};

}  // namespace migr::rnic
