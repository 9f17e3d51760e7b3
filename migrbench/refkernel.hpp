// Reference kernel for host-speed scaling of wall times.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// for tens of seconds at a time (other tenants on the same cores). That
// drift is far larger than the changes the benchmark must resolve, and no
// statistic over one run removes it. So every repetition is bracketed by a
// fixed kernel: a pointer chase through a 64 KiB cycle, a 4096-entry binary
// heap and branchy integer hashing, i.e. the cache-resident, branchy work
// the simulator's event loop does. It uses no simulator code and allocates
// nothing while timed, so a change to the program cannot move it; only the
// host can. Wall times are scaled by kRefKernelS / (kernel time beside
// them): a repetition run while the host was 30% slow is scaled back by the
// same 30%.
#pragma once

#include <chrono>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace migrbench {

/// Kernel time on the quiet reference host (4-vCPU Intel Xeon VM, Release
/// build): the fastest of 132 samples. Scaled wall times are in seconds of
/// that host at that speed.
inline constexpr double kRefKernelS = 0.0090;

class RefKernel {
 public:
  RefKernel() : next_(1u << 14), heap_(4096) {
    // Sattolo's shuffle: one cycle through every slot, so the chase visits
    // the whole 64 KiB array in an order the prefetcher cannot follow.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 88172645463325252ull;
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[xorshift(x) % i]);
    }
  }

  /// Wall seconds of one fixed run of the kernel.
  double time_s() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t p = 0;
    std::uint64_t acc = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 100'000; ++i) {
        p = next_[p];
        acc += p;
      }
      std::size_t n = 0;
      for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t v = xorshift(x);
        if (n < heap_.size()) {
          push(n++, v);
        } else {
          replace_top(n, v);
        }
        acc += (v & 7) == 3 ? v >> 3 : v & 0xff;
      }
    }
    sink_ = acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

 private:
  static std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  void push(std::size_t c, std::uint64_t v) {
    heap_[c] = v;
    while (c > 0 && heap_[(c - 1) / 2] > heap_[c]) {
      std::swap(heap_[c], heap_[(c - 1) / 2]);
      c = (c - 1) / 2;
    }
  }
  void replace_top(std::size_t n, std::uint64_t v) {
    heap_[0] = v;
    for (std::size_t c = 0;;) {
      const std::size_t l = 2 * c + 1;
      const std::size_t r = l + 1;
      std::size_t m = c;
      if (l < n && heap_[l] < heap_[m]) m = l;
      if (r < n && heap_[r] < heap_[m]) m = r;
      if (m == c) return;
      std::swap(heap_[c], heap_[m]);
      c = m;
    }
  }

  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> heap_;
  volatile std::uint64_t sink_ = 0;  // keeps the work observable
};

}  // namespace migrbench
