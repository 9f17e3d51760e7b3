#include "common/payload.hpp"

#include <bit>
#include <cstring>
#include <new>
#include <vector>

namespace migr::common::detail {
namespace {

// Power-of-two size classes from 64 B (atomics, acks) through 4 MiB (whole
// pre-copy messages). Larger blocks bypass the pool.
constexpr std::size_t kMinClass = 64;
constexpr std::size_t kMaxClass = 4u << 20;
constexpr int kNumClasses = 17;  // 64 << 16 == 4 MiB

// A displaced page block returns to the pool as a block of its own class.
static_assert(std::has_single_bit(kPageBlockBytes) && kPageBlockBytes >= kMinClass &&
              kPageBlockBytes <= kMaxClass);

int class_of(std::size_t n) noexcept {
  std::size_t c = kMinClass;
  int idx = 0;
  while (c < n) {
    c <<= 1;
    idx++;
  }
  return c <= kMaxClass ? idx : -1;
}

struct PayloadPool {
  std::vector<PayloadBlock*> free[kNumClasses];
  ~PayloadPool() {
    for (auto& cls : free) {
      for (PayloadBlock* b : cls) ::operator delete(b);
    }
  }
};
thread_local PayloadPool g_pool;

}  // namespace

PayloadBlock* payload_block_alloc(std::size_t n) {
  const int cls = class_of(n);
  if (cls >= 0) {
    auto& free = g_pool.free[cls];
    if (!free.empty()) {
      PayloadBlock* b = free.back();
      free.pop_back();
      b->refs = 1;
      return b;
    }
  }
  const std::size_t cap = cls >= 0 ? (kMinClass << cls) : n;
  auto* b = static_cast<PayloadBlock*>(::operator new(sizeof(PayloadBlock) + cap));
  b->refs = 1;
  b->capacity = static_cast<std::uint32_t>(cap);
  return b;
}

void payload_block_free(PayloadBlock* b) noexcept {
  const int cls = class_of(b->capacity);
  if (cls < 0 || b->capacity != (kMinClass << cls)) {
    ::operator delete(b);
    return;
  }
  g_pool.free[cls].push_back(b);
}

PayloadBlock* page_block_new() {
  auto* b = static_cast<PayloadBlock*>(::operator new(sizeof(PayloadBlock) + kPageBlockBytes));
  b->refs = 1;
  b->capacity = kPageBlockBytes;
  std::memset(payload_block_data(b), 0, kPageBlockBytes);
  return b;
}

void page_block_delete(PayloadBlock* b) noexcept { ::operator delete(b); }

}  // namespace migr::common::detail
