// The repo's one percentile implementation: a fixed-memory, mergeable,
// log-bucketed latency histogram (HDR-style) over int64 samples (ns
// durations, byte counts).
//
// Bucketing: values 0..63 get one exact bucket each; above that, each
// power-of-two octave is split into 32 sub-buckets, so the quantization
// error of a bucketed percentile is bounded at ~3.1% while the whole table
// stays a flat 1888-slot count array — fixed memory no matter how many
// samples stream through, and two histograms merge by adding slots.
//
// Exact mode: alongside the buckets, the first `exact_capacity` raw samples
// are kept verbatim (capacity reserved at construction). While the sample
// count fits, percentile() answers by nearest rank over the raw values —
// *exactly* what a sort-and-index over the full data would return. Small
// populations (per-drain blackouts, per-window RTTs) therefore keep
// bit-exact percentiles (DrainReport's rendering is byte-identical to the
// pre-histogram code), and only beyond the capacity does the answer degrade
// to the bucketed estimate. Merging keeps exact mode when the combined
// population still fits.
//
// Cost discipline: observe() is branch + increment work on preallocated
// memory — zero steady-state allocation (pinned by obs_test with a counting
// operator new). reset() keeps the capacity. Queries may allocate scratch
// (they sort a copy); they are report-time, not data-path.
#pragma once

#include <cstdint>
#include <vector>

namespace migr::obs {

class Histogram {
 public:
  /// Raw samples kept for exact percentiles before degrading to buckets.
  static constexpr std::size_t kDefaultExactCapacity = 512;

  explicit Histogram(std::size_t exact_capacity = kDefaultExactCapacity);

  /// Record one sample. Negative values clamp to bucket 0 (min() still
  /// reports the true value); values beyond 2^62 land in the top bucket
  /// (max() stays exact).
  void record(std::int64_t v) noexcept;

  /// The instrument verb registry clients use, next to Counter::inc() and
  /// Gauge::set(): identical to record().
  void observe(std::int64_t v) noexcept { record(v); }

  /// Fold `other` into this histogram. Exact mode survives when the
  /// combined population fits this histogram's reservoir; otherwise both
  /// sides' buckets carry the distribution.
  void merge(const Histogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  std::int64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const noexcept { return count_ == 0 ? 0 : max_; }

  /// Nearest-rank percentile, p in [0, 100]: the ceil(p/100*n)-th smallest
  /// sample (rank clamped to [1, n]). Returns 0 on an empty histogram. In
  /// exact mode the answer is the recorded sample itself; in bucketed mode
  /// it is the containing bucket's upper bound, clamped to [min, max].
  std::int64_t percentile(double p) const noexcept;

  /// Still answering percentiles from raw samples (count <= capacity)?
  bool exact() const noexcept { return exact_; }
  std::size_t exact_capacity() const noexcept { return samples_.capacity(); }

  /// Count in log-bucket slot `i` (for export/inspection).
  static constexpr std::size_t kBuckets = 64 + 57 * 32;  // exact run + octaves
  std::uint64_t bucket_count(std::size_t i) const noexcept { return buckets_[i]; }
  /// Largest value mapping to bucket `i` (the bucket's representative).
  static std::int64_t bucket_upper(std::size_t i) noexcept;
  /// Bucket index for value `v` (clamped like observe()).
  static std::size_t bucket_index(std::int64_t v) noexcept;

  /// Zero all counts and samples; capacity and memory are kept.
  void reset() noexcept;

 private:
  std::vector<std::uint64_t> buckets_;   // kBuckets slots, sized once
  std::vector<std::int64_t> samples_;    // exact reservoir, capacity fixed
  bool exact_ = true;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace migr::obs
