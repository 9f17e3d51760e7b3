// Metric-extraction rules of the benchmark, kept free of simulator types so
// extract_test.cpp can pin them on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace migrbench {

/// Brownout: total simulated time of the slices whose delivered count falls
/// below `threshold` x the pre-event steady count per slice. Only slices at
/// or after the event are passed in. A non-positive steady rate means the
/// service had no traffic to lose, so there is no brownout.
inline std::int64_t brownout_ns(const std::vector<std::uint64_t>& delivered_per_slice,
                                std::int64_t slice_ns, double steady_per_slice,
                                double threshold = 0.9) {
  if (steady_per_slice <= 0) return 0;
  const double floor = threshold * steady_per_slice;
  std::int64_t below = 0;
  for (const std::uint64_t d : delivered_per_slice) {
    if (static_cast<double>(d) < floor) below++;
  }
  return below * slice_ns;
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()) / 100.0);
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

/// Samples strictly above the nearest-rank p99 position of n samples.
inline std::uint64_t beyond_p99(std::uint64_t n) {
  const std::uint64_t rank = (99 * n + 99) / 100;  // ceil(0.99 n), exact
  return n - std::min(n, rank);
}

/// A p99 is reported only when at least 10 samples lie beyond it.
inline bool p99_supported(std::uint64_t n) { return beyond_p99(n) >= 10; }

/// The tail of a latency population under the reporting rule: the p99 when
/// it is supported, otherwise the max, always with the sample count.
struct Tail {
  double p50 = 0;
  double tail = 0;       // p99 when is_p99, else max
  bool is_p99 = false;
  std::uint64_t count = 0;
};

inline Tail tail_of(const std::vector<double>& samples) {
  Tail t;
  t.count = samples.size();
  if (samples.empty()) return t;
  t.p50 = percentile(samples, 50);
  t.is_p99 = p99_supported(t.count);
  t.tail = t.is_p99 ? percentile(samples, 99) : *std::max_element(samples.begin(), samples.end());
  return t;
}

/// A ratio reported together with the base it was taken over.
struct Share {
  double value = 0;
  double base = 0;
};

inline Share share_of(double part, double base) {
  return {base > 0 ? part / base : 0.0, base};
}

/// In-order share of received data packets: packets not dropped as
/// out-of-sequence, over all received packets.
inline Share inorder_share(std::uint64_t rx_packets, std::uint64_t ooo_drops) {
  const std::uint64_t kept = rx_packets - std::min(rx_packets, ooo_drops);
  return share_of(static_cast<double>(kept), static_cast<double>(rx_packets));
}

/// Application payload bytes over data-plane wire bytes.
inline Share payload_share(std::uint64_t payload_bytes, std::uint64_t wire_bytes) {
  return share_of(static_cast<double>(payload_bytes), static_cast<double>(wire_bytes));
}

/// First quartile, median and third quartile by linear interpolation
/// between closest ranks; all zero when empty.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto at = [&v](double frac) {
    const double pos = frac * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  q.q1 = at(0.25);
  q.median = at(0.5);
  q.q3 = at(0.75);
  return q;
}

inline double median(const std::vector<double>& v) { return quartiles(v).median; }

}  // namespace migrbench
