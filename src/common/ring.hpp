// Fixed-capacity ring buffer. This is the backing structure for simulated
// hardware queues (SQ/RQ work-queue elements, CQ entries, SRQ) — sized at
// creation like real NIC queues, rejecting pushes when full so that queue
// overflow surfaces as the same resource_exhausted error ibverbs reports.
//
// head()/tail() indices are monotonically increasing 64-bit counters, never
// wrapped, which mirrors how MigrRDMA reasons about "the window capped by
// the head and tail pointers of the SQ/RQ is exactly the inflight WRs"
// (paper §3.4).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace migr::common {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : slots_(capacity) {
    assert(capacity > 0);
  }

  bool full() const noexcept { return tail_ - head_ == slots_.size(); }
  bool empty() const noexcept { return tail_ == head_; }
  std::size_t size() const noexcept { return static_cast<std::size_t>(tail_ - head_); }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Monotonic consumer index: number of elements ever popped.
  std::uint64_t head() const noexcept { return head_; }
  /// Monotonic producer index: number of elements ever pushed.
  std::uint64_t tail() const noexcept { return tail_; }

  bool push(const T& v) {
    if (full()) return false;
    slots_[tail_ % slots_.size()] = v;
    ++tail_;
    return true;
  }
  bool push(T&& v) {
    if (full()) return false;
    slots_[tail_ % slots_.size()] = std::move(v);
    ++tail_;
    return true;
  }

  T pop() {
    assert(!empty());
    T v = std::move(slots_[head_ % slots_.size()]);
    ++head_;
    return v;
  }

  T& front() {
    assert(!empty());
    return slots_[head_ % slots_.size()];
  }
  const T& front() const {
    assert(!empty());
    return slots_[head_ % slots_.size()];
  }

  /// Element at logical offset i from the head (0 = front). i < size().
  T& at(std::size_t i) {
    assert(i < size());
    return slots_[(head_ + i) % slots_.size()];
  }
  const T& at(std::size_t i) const {
    assert(i < size());
    return slots_[(head_ + i) % slots_.size()];
  }

  void clear() noexcept { head_ = tail_ = 0; }

 private:
  std::vector<T> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

/// Unbounded FIFO ring: doubles its storage instead of rejecting when full.
/// For software rotations (e.g. the device's transmit scheduler) where a
/// std::deque's steady-state pop_front/push_back cycling crosses a chunk
/// boundary every few dozen rotations and allocates each time; this only
/// allocates on high-water-mark growth. The capacity is a power of two, so
/// indexing is a mask.
template <typename T>
class GrowRing {
 public:
  bool empty() const noexcept { return tail_ == head_; }
  std::size_t size() const noexcept { return static_cast<std::size_t>(tail_ - head_); }

  void push_back(T v) {
    if (size() == slots_.size()) grow();
    slots_[tail_ & (slots_.size() - 1)] = std::move(v);
    ++tail_;
  }
  T& front() {
    assert(!empty());
    return slots_[head_ & (slots_.size() - 1)];
  }
  const T& back() const {
    assert(!empty());
    return slots_[(tail_ - 1) & (slots_.size() - 1)];
  }
  void pop_front() {
    assert(!empty());
    ++head_;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 16 : slots_.size() * 2);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace migr::common
