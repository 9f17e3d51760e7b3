#include "criu/dirtyrate.hpp"

#include <algorithm>

namespace migr::criu {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::size_t kSamplePages = 512;  // pages hashed per interval (all, if fewer)
constexpr double kEwmaAlpha = 0.5;         // weight of the newest interval

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len, std::uint64_t h) {
  for (std::size_t i = 0; i < len; i++) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t DirtyRateEstimator::hash_page(proc::VirtAddr page) const {
  // page_at materializes a never-written page as zeros, so zero bytes
  // written to it later do not count as dirtying. An address unmapped since
  // sampling hashes to the offset basis.
  const auto phys = proc_.mem().page_at(page);
  if (!phys) return kFnvOffset;
  return fnv1a(phys->data(), phys->size(), kFnvOffset);
}

void DirtyRateEstimator::begin_interval(sim::TimeNs now) {
  samples_.clear();
  total_pages_ = 0;

  const std::vector<proc::Vma> vmas = proc_.mem().vmas();
  for (const auto& v : vmas) total_pages_ += v.length / proc::kPageSize;
  if (total_pages_ == 0) {
    interval_start_ = now;
    return;
  }

  const std::size_t want =
      std::min<std::size_t>(kSamplePages, total_pages_);
  samples_.reserve(want);
  for (std::size_t i = 0; i < want; i++) {
    // Uniform page index over the whole mapped set, mapped back to an
    // address by walking the VMA table. Duplicates are possible and
    // harmless — QEMU's sampler tolerates them the same way.
    std::uint64_t idx = rng_.below(total_pages_);
    proc::VirtAddr addr = 0;
    for (const auto& v : vmas) {
      const std::uint64_t npages = v.length / proc::kPageSize;
      if (idx < npages) {
        addr = v.start + idx * proc::kPageSize;
        break;
      }
      idx -= npages;
    }
    samples_.push_back(Sample{addr, hash_page(addr)});
  }
  interval_start_ = now;
}

std::uint64_t DirtyRateEstimator::end_interval(sim::TimeNs now) {
  if (interval_start_ < 0) return 0;
  const sim::DurationNs elapsed = now - interval_start_;
  interval_start_ = -1;
  if (elapsed <= 0 || samples_.empty()) return 0;

  std::size_t changed = 0;
  for (const auto& s : samples_) {
    if (hash_page(s.page) != s.hash) changed++;
  }
  const double fraction =
      static_cast<double>(changed) / static_cast<double>(samples_.size());
  const double est_pages = fraction * static_cast<double>(total_pages_);
  const double interval_pps = est_pages / (static_cast<double>(elapsed) * 1e-9);

  if (intervals_ == 0) {
    rate_pps_ = interval_pps;
  } else {
    rate_pps_ = kEwmaAlpha * interval_pps + (1.0 - kEwmaAlpha) * rate_pps_;
  }
  intervals_++;
  return static_cast<std::uint64_t>(est_pages);
}

}  // namespace migr::criu
