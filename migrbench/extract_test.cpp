// Tests of the benchmark's metric-extraction rules (extract.hpp). Plain
// checks, no test framework, so the benchmark package builds on its own.
//
//   migrbench_test   # exits non-zero on the first failing check
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "extract.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "extract_test.cpp:%d: FAILED: %s\n", line, what);
    failures++;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void brownout_counts_only_slices_below_threshold() {
  using migrbench::brownout_ns;
  // Steady 100/slice: 90 is exactly at the threshold (not below), 89 is below.
  const std::vector<std::uint64_t> d = {100, 90, 89, 0, 50, 100, 120};
  CHECK(brownout_ns(d, 1'000'000, 100.0) == 3 * 1'000'000);
  CHECK(brownout_ns(d, 1'000'000, 100.0, 0.5) == 1 * 1'000'000);
  CHECK(brownout_ns({}, 1'000'000, 100.0) == 0);
  // A service with no steady traffic has nothing to lose.
  CHECK(brownout_ns({0, 0, 0}, 1'000'000, 0.0) == 0);
  // Slice length scales the result.
  CHECK(brownout_ns({0, 0}, 250'000, 4.0) == 500'000);
}

void p99_needs_ten_samples_beyond_it() {
  using migrbench::beyond_p99;
  using migrbench::p99_supported;
  CHECK(beyond_p99(8) == 0);
  CHECK(beyond_p99(100) == 1);
  CHECK(!p99_supported(999));
  CHECK(beyond_p99(1000) == 10);
  CHECK(p99_supported(1000));
  CHECK(p99_supported(6900));
  CHECK(beyond_p99(0) == 0);
}

void tail_reports_max_for_small_populations() {
  // Eight drain blackouts: too few for a p99, so the tail is the max.
  const std::vector<double> eight = {95, 94.8, 94.9, 95.03, 94.7, 94.75, 94.8, 94.85};
  const auto t = migrbench::tail_of(eight);
  CHECK(!t.is_p99);
  CHECK(t.count == 8);
  CHECK(near(t.tail, 95.03));
  CHECK(near(t.p50, 94.8));  // nearest rank 4 of 8

  // 2000 samples 1..2000: p99 is rank 1980, with 20 samples beyond it.
  std::vector<double> many;
  for (int i = 2000; i >= 1; --i) many.push_back(i);
  const auto m = migrbench::tail_of(many);
  CHECK(m.is_p99);
  CHECK(m.count == 2000);
  CHECK(near(m.tail, 1980));
  CHECK(near(m.p50, 1000));

  const auto e = migrbench::tail_of({});
  CHECK(e.count == 0 && e.tail == 0 && e.p50 == 0);
}

void shares_carry_their_base() {
  const auto io = migrbench::inorder_share(4'130'000, 3'520'000);
  CHECK(near(io.base, 4'130'000));
  CHECK(near(io.value, 610'000.0 / 4'130'000.0));
  // Drops can never exceed what was received; clamp rather than wrap.
  const auto clamped = migrbench::inorder_share(10, 12);
  CHECK(near(clamped.value, 0) && near(clamped.base, 10));
  const auto none = migrbench::inorder_share(0, 0);
  CHECK(near(none.value, 0) && near(none.base, 0));

  const auto ps = migrbench::payload_share(4096, 4096 + 71);
  CHECK(near(ps.base, 4167));
  CHECK(near(ps.value, 4096.0 / 4167.0));
  CHECK(near(migrbench::payload_share(5, 0).value, 0));
}

void quartiles_interpolate() {
  const auto q = migrbench::quartiles({5, 1, 3, 2, 4});
  CHECK(near(q.q1, 2) && near(q.median, 3) && near(q.q3, 4));
  const auto even = migrbench::quartiles({1, 2, 3, 4});
  CHECK(near(even.q1, 1.75) && near(even.median, 2.5) && near(even.q3, 3.25));
  CHECK(near(migrbench::median({7}), 7));
  CHECK(near(migrbench::median({}), 0));
}

}  // namespace

int main() {
  brownout_counts_only_slices_below_threshold();
  p99_needs_ten_samples_beyond_it();
  tail_reports_max_for_small_populations();
  shares_carry_their_base();
  quartiles_interpolate();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("extract_test: all checks passed\n");
  return EXIT_SUCCESS;
}
