// Dirty-page-rate estimation for adaptive pre-copy, in the spirit of QEMU's
// migration/dirtyrate.c sample-pages mode: hash a random sample of mapped
// pages at the start of an interval, re-hash at the end, scale the dirtied
// fraction up to the whole address space, and fold the per-interval rate
// into an EWMA. The estimator never touches dirty bits (it reads physical
// pages directly), so running it does not perturb the pre-copy rounds, and
// all randomness comes from a private seeded common::Rng — runs stay
// bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "proc/process.hpp"
#include "sim/time.hpp"

namespace migr::criu {

class DirtyRateEstimator {
 public:
  /// Base of the sampler's seed; controllers add the guest id so each guest
  /// draws its own sample set.
  static constexpr std::uint64_t kDefaultSeed = 0x6d696772;

  explicit DirtyRateEstimator(proc::SimProcess& proc, std::uint64_t seed = kDefaultSeed)
      : proc_(proc), rng_(seed) {}

  /// Snapshot a fresh page sample at sim-time `now`. Replaces any interval
  /// already open.
  void begin_interval(sim::TimeNs now);

  /// Close the open interval at `now`: re-hash the sample, extrapolate the
  /// dirtied fraction to the whole mapped set, update the EWMA rate.
  /// Returns the estimated pages dirtied over the interval (0 when no
  /// interval was open or no time elapsed).
  std::uint64_t end_interval(sim::TimeNs now);

  bool open() const noexcept { return interval_start_ >= 0; }
  /// At least one interval completed — pages_per_sec() is meaningful.
  bool primed() const noexcept { return intervals_ > 0; }
  std::uint64_t intervals() const noexcept { return intervals_; }

  double pages_per_sec() const noexcept { return rate_pps_; }
  double bytes_per_sec() const noexcept {
    return rate_pps_ * static_cast<double>(proc::kPageSize);
  }

 private:
  struct Sample {
    proc::VirtAddr page = 0;
    std::uint64_t hash = 0;
  };

  std::uint64_t hash_page(proc::VirtAddr page) const;

  proc::SimProcess& proc_;
  common::Rng rng_;
  std::vector<Sample> samples_;
  std::uint64_t total_pages_ = 0;   // mapped pages when the interval opened
  sim::TimeNs interval_start_ = -1;
  std::uint64_t intervals_ = 0;
  double rate_pps_ = 0;
};

}  // namespace migr::criu
