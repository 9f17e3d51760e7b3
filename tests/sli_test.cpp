// Brownout SLI/SLO pipeline unit tests: window tiling across migration
// phases (the frozen windows must bracket [freeze_at, resume_at] exactly),
// quiet-stretch collapse, recovery detection against the idle baseline,
// the SLO spec grammar, multi-window burn-rate alerting, and the cost
// discipline (disabled taps and steady-state sampling allocate nothing,
// pinned with a counting global operator new like recorder_test).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "obs/sli.hpp"
#include "obs/slo.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every allocation in the process funnels through these,
// so "zero allocations" is a hard property, not a sampling claim.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count++;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_alloc_count++;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
// Nothrow variants funnel through the same malloc path so every new/delete
// pair is malloc/free (libstdc++ temporary buffers allocate nothrow but free
// via plain delete; ASan flags a mixed pair).
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count++;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace migr::obs {
namespace {

class SliHubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& hub = SliHub::global();
    hub.clear();
    SliConfig cfg;
    cfg.window = sim::usec(100);
    hub.set_config(cfg);
    hub.set_enabled(true);
  }
  void TearDown() override {
    auto& hub = SliHub::global();
    hub.clear();
    hub.set_enabled(false);
    hub.set_config(SliConfig{});
  }
};

void expect_tiled(const std::vector<SliWindow>& ws) {
  for (std::size_t i = 1; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].start, ws[i - 1].end) << "gap before window " << i;
  }
}

TEST_F(SliHubTest, WindowsTileAcrossMigrationPhasesAndFrozenBracketsBlackout) {
  auto& hub = SliHub::global();
  GuestSli* g = hub.guest(7, 0);
  ASSERT_NE(g, nullptr);

  // Idle baseline: 10 us RTTs, 1000 B deliveries, every 10 us for 1 ms.
  for (sim::TimeNs t = 0; t < sim::usec(1000); t += sim::usec(10)) {
    g->rtt(t, sim::usec(10));
    g->delivered(t, 1000);
  }
  // Migration starts mid-window; two pre-copy iterations with inflated RTTs.
  hub.on_migration_start(7, 1'050'000);
  for (sim::TimeNs t = 1'060'000; t <= 1'220'000; t += sim::usec(20)) {
    g->rtt(t, sim::usec(30));
  }
  hub.on_precopy_iteration(7, 1'230'000, 1);
  for (sim::TimeNs t = 1'240'000; t <= 1'400'000; t += sim::usec(20)) {
    g->rtt(t, sim::usec(30));
  }
  // Blackout off the window grid: 299 us frozen, no traffic.
  hub.on_freeze(7, 1'414'000);
  hub.on_resume(7, 1'713'000);
  // First post-resume window still inflated, second back at baseline.
  for (sim::TimeNs t = 1'720'000; t <= 1'800'000; t += sim::usec(20)) {
    g->rtt(t, sim::usec(50));
  }
  for (sim::TimeNs t = 1'820'000; t <= 1'900'000; t += sim::usec(20)) {
    g->rtt(t, sim::usec(10));
  }
  hub.on_migration_end(7, 1'950'000);
  hub.flush(sim::usec(2000));

  const auto& ws = g->windows();
  ASSERT_FALSE(ws.empty());
  expect_tiled(ws);
  EXPECT_EQ(ws.front().start, 0);
  EXPECT_EQ(ws.back().end, sim::usec(2000));

  // The frozen windows tile [freeze_at, resume_at] exactly — the brownout
  // timeline composes with the blackout waterfall.
  std::vector<const SliWindow*> frozen;
  sim::DurationNs frozen_total = 0;
  for (const SliWindow& w : ws) {
    if (w.phase == ServicePhase::frozen) {
      frozen.push_back(&w);
      frozen_total += w.duration();
    }
  }
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen.front()->start, 1'414'000);
  EXPECT_EQ(frozen.back()->end, 1'713'000);
  EXPECT_EQ(frozen_total, 299'000);  // == service_blackout()

  // Phase ordering: idle -> precopy -> frozen -> recovery -> idle.
  ASSERT_EQ(ws.front().phase, ServicePhase::idle);
  bool saw_precopy = false, saw_recovery = false;
  for (const SliWindow& w : ws) {
    if (w.phase == ServicePhase::precopy) {
      saw_precopy = true;
      EXPECT_GE(w.precopy_iter, 0);
    } else {
      EXPECT_EQ(w.precopy_iter, -1);
    }
    saw_recovery |= w.phase == ServicePhase::recovery;
  }
  EXPECT_TRUE(saw_precopy);
  EXPECT_TRUE(saw_recovery);
  EXPECT_EQ(g->phase(), ServicePhase::idle);  // recovered

  const BrownoutAttribution att = hub.attribution(7);
  EXPECT_TRUE(att.valid);
  EXPECT_EQ(att.migration_start, 1'050'000);
  EXPECT_EQ(att.freeze_at, 1'414'000);
  EXPECT_EQ(att.resume_at, 1'713'000);
  EXPECT_EQ(att.baseline_p99_ns, sim::usec(10));
  // First post-resume window (p99 = 50 us) fails the 1.5x-baseline bar; the
  // second (p99 = 10 us) ends recovery at its close, 200 us after resume.
  EXPECT_EQ(att.recovery_ns, 200'000);
  // Both pre-copy iterations inflated 3x over the baseline.
  ASSERT_EQ(att.precopy_p99.size(), 2u);
  for (const auto& it : att.precopy_p99) {
    EXPECT_EQ(it.p99_ns, sim::usec(30));
    EXPECT_DOUBLE_EQ(it.inflation, 3.0);
  }
  // No deliveries during the episode while the baseline delivered steadily.
  EXPECT_GT(att.goodput_loss_bytes, 0.0);
}

TEST_F(SliHubTest, QuietStretchCollapsesIntoOneWindowOnTheGrid) {
  auto& hub = SliHub::global();
  GuestSli* g = hub.guest(3, 0);
  ASSERT_NE(g, nullptr);

  // Nothing for 10.5 windows, then one sample.
  g->rtt(1'050'000, sim::usec(5));
  hub.flush(1'100'000);

  const auto& ws = g->windows();
  // One collapsed empty window [0, 1ms) — boundary on the window grid — then
  // the sample's window closed by the flush.
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].start, 0);
  EXPECT_EQ(ws[0].end, 1'000'000);
  EXPECT_EQ(ws[0].msgs, 0u);
  EXPECT_EQ(ws[1].start, 1'000'000);
  EXPECT_EQ(ws[1].end, 1'100'000);
  EXPECT_EQ(ws[1].msgs, 1u);
  expect_tiled(ws);
}

TEST_F(SliHubTest, AbortReturnsTheGuestToIdleWithoutRecovery) {
  auto& hub = SliHub::global();
  GuestSli* g = hub.guest(4, 0);
  ASSERT_NE(g, nullptr);
  g->rtt(sim::usec(50), sim::usec(10));
  hub.on_migration_start(4, sim::usec(200));
  // Abort mid-precopy: the service never froze, rollback keeps it running.
  hub.on_migration_end(4, sim::usec(450));
  hub.flush(sim::usec(600));

  EXPECT_EQ(g->phase(), ServicePhase::idle);
  for (const SliWindow& w : g->windows()) {
    EXPECT_NE(w.phase, ServicePhase::frozen);
    EXPECT_NE(w.phase, ServicePhase::recovery);
  }
  const BrownoutAttribution att = hub.attribution(4);
  EXPECT_TRUE(att.valid);          // the episode happened...
  EXPECT_EQ(att.freeze_at, -1);    // ...but no blackout
  EXPECT_EQ(att.recovery_ns, -1);  // and no recovery phase
}

TEST_F(SliHubTest, RetransmitDeltasClampOnCounterReset) {
  auto& hub = SliHub::global();
  GuestSli* g = hub.guest(5, 0);
  ASSERT_NE(g, nullptr);
  std::uint64_t counter = 100;  // non-zero start: priming must swallow it
  hub.set_retransmit_source(5, 0, [&counter] { return counter; });

  g->rtt(sim::usec(50), sim::usec(5));
  hub.flush(sim::usec(100));  // priming poll: delta 0, not 100
  counter = 107;
  g->rtt(sim::usec(150), sim::usec(5));
  hub.flush(sim::usec(200));
  counter = 3;  // QP switch reset the transport counter
  g->rtt(sim::usec(250), sim::usec(5));
  hub.flush(sim::usec(300));

  const auto& ws = g->windows();
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[0].retransmits, 0u);
  EXPECT_EQ(ws[1].retransmits, 7u);
  EXPECT_EQ(ws[2].retransmits, 0u);  // clamped, not wrapped
}

TEST_F(SliHubTest, AttributionCountsOnlyTheEpisodesRetransmits) {
  auto& hub = SliHub::global();
  GuestSli* g = hub.guest(6, 0);
  ASSERT_NE(g, nullptr);
  std::uint64_t counter = 0;
  hub.set_retransmit_source(6, 0, [&counter] { return counter; });

  g->rtt(sim::usec(50), sim::usec(5));
  hub.flush(sim::usec(100));  // priming poll
  counter = 40;               // idle-time retransmits: not the migration's
  hub.on_migration_start(6, sim::usec(200));
  counter = 45;               // pre-copy
  hub.on_freeze(6, sim::usec(300));
  hub.on_resume(6, sim::usec(400));
  counter = 52;               // recovery
  hub.flush(sim::usec(500));

  const BrownoutAttribution att = hub.attribution(6);
  ASSERT_TRUE(att.valid);
  EXPECT_EQ(att.retransmits, 12u);
  EXPECT_NE(common::to_json(att).find("\"retransmits\":12"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO spec grammar
// ---------------------------------------------------------------------------

TEST(SloSpecTest, ParserAcceptsTheDocumentedGrammar) {
  std::vector<SloRule> rules;
  std::string err;
  ASSERT_TRUE(parse_slo_spec(
      "name=lat,p99<60us,budget=0.05,fast=400us,slow=4ms,burn=2;goodput>1gbps", &rules,
      &err))
      << err;
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "lat");
  EXPECT_EQ(rules[0].metric, SloRule::Metric::p99);
  EXPECT_TRUE(rules[0].want_below);
  EXPECT_DOUBLE_EQ(rules[0].bound, 60'000.0);
  EXPECT_DOUBLE_EQ(rules[0].budget, 0.05);
  EXPECT_EQ(rules[0].fast, sim::usec(400));
  EXPECT_EQ(rules[0].slow, sim::msec(4));
  EXPECT_DOUBLE_EQ(rules[0].burn_threshold, 2.0);
  EXPECT_EQ(rules[1].metric, SloRule::Metric::goodput);
  EXPECT_FALSE(rules[1].want_below);
  EXPECT_DOUBLE_EQ(rules[1].bound, 1e9);
  EXPECT_EQ(rules[1].name, "goodput>1gbps");  // defaults to the objective text

  ASSERT_TRUE(parse_slo_spec("retx_rate<100", &rules, &err)) << err;
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].metric, SloRule::Metric::retx_rate);
  EXPECT_DOUBLE_EQ(rules[0].bound, 100.0);
}

TEST(SloSpecTest, ParserRejectsMalformedSpecs) {
  std::vector<SloRule> rules;
  std::string err;
  const char* bad[] = {
      "",                            // empty
      "p98<60us",                    // unknown metric
      "p99<60parsecs",               // unknown unit
      "p99<60us,budget=2",           // budget out of (0,1]
      "p99<60us,fast=10ms,slow=1ms", // fast exceeds slow
      "name=foo,budget=0.1",         // rule without an objective
      "goodput>60us",                // rate with a duration unit
  };
  for (const char* spec : bad) {
    err.clear();
    EXPECT_FALSE(parse_slo_spec(spec, &rules, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// ---------------------------------------------------------------------------
// Burn-rate engine
// ---------------------------------------------------------------------------

SliWindow mk_window(sim::TimeNs start, sim::DurationNs dur, std::int64_t p99,
                    std::uint64_t msgs = 10, ServicePhase phase = ServicePhase::idle) {
  SliWindow w;
  w.start = start;
  w.end = start + dur;
  w.phase = phase;
  w.msgs = msgs;
  w.p99_ns = p99;
  return w;
}

TEST(SloEngineTest, AlertFiresWhenBothHorizonsBurnAndResolvesOnTheFastOne) {
  std::vector<SloRule> rules;
  std::string err;
  // budget 0.5, burn 1: alert when >= 50% of both trailing horizons is bad.
  ASSERT_TRUE(parse_slo_spec("p99<60us,budget=0.5,fast=400us,slow=4ms,burn=1", &rules,
                             &err))
      << err;
  SloEngine eng(rules);

  // 4 ms of good windows: no alert.
  sim::TimeNs t = 0;
  for (int i = 0; i < 40; ++i, t += sim::usec(100)) {
    eng.on_window(1, mk_window(t, sim::usec(100), sim::usec(10)));
  }
  EXPECT_FALSE(eng.burning(1));
  EXPECT_EQ(eng.alerts().size(), 0u);

  // Bad windows: the fast horizon saturates after 4, the slow one needs 2 ms
  // of bad time before the alert can fire.
  int fired_after = -1;
  for (int i = 0; i < 20; ++i, t += sim::usec(100)) {
    eng.on_window(1, mk_window(t, sim::usec(100), sim::usec(500)));
    if (fired_after < 0 && !eng.alerts().empty()) fired_after = i + 1;
  }
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_TRUE(eng.burning(1));
  EXPECT_GT(fired_after, 4);  // the slow horizon gated it, not the fast one
  EXPECT_GE(eng.burn_rate(1), 1.0);
  EXPECT_EQ(eng.active_alert_count(), 1u);

  // Good windows again: resolves once the fast horizon clears.
  for (int i = 0; i < 8; ++i, t += sim::usec(100)) {
    eng.on_window(1, mk_window(t, sim::usec(100), sim::usec(10)));
  }
  EXPECT_FALSE(eng.burning(1));
  EXPECT_EQ(eng.active_alert_count(), 0u);
  ASSERT_EQ(eng.alerts().size(), 1u);
  EXPECT_GE(eng.alerts()[0].resolved_at, eng.alerts()[0].fired_at);
}

TEST(SloEngineTest, FrozenWindowsAreUnconditionallyBadAndEmptyOnesSkipped) {
  std::vector<SloRule> rules;
  std::string err;
  ASSERT_TRUE(parse_slo_spec("p99<60us,budget=0.5,fast=400us,slow=400us,burn=1", &rules,
                             &err))
      << err;
  SloEngine eng(rules);

  // Empty non-frozen windows carry no latency signal: never an alert.
  sim::TimeNs t = 0;
  for (int i = 0; i < 10; ++i, t += sim::usec(100)) {
    eng.on_window(2, mk_window(t, sim::usec(100), 0, /*msgs=*/0));
  }
  EXPECT_FALSE(eng.burning(2));

  // Frozen windows are bad even with zero messages — a frozen service is
  // failing its objective; one 400 us frozen window saturates both horizons.
  eng.on_window(2, mk_window(t, sim::usec(400), 0, 0, ServicePhase::frozen));
  EXPECT_TRUE(eng.burning(2));
}

// ---------------------------------------------------------------------------
// Cost discipline
// ---------------------------------------------------------------------------

TEST(SliCostTest, DisabledHubTapsAllocateNothing) {
  auto& hub = SliHub::global();
  hub.clear();
  hub.set_enabled(false);
  GuestSli* g = hub.guest(9, 0);
  EXPECT_EQ(g, nullptr);  // apps cache this: one branch per message

  const std::uint64_t before = g_alloc_count;
  for (sim::TimeNs t = 0; t < 10'000; ++t) {
    if (g != nullptr) g->rtt(t, 10);  // the app-side tap shape
    hub.on_freeze(9, t);
    hub.on_resume(9, t);
  }
  hub.flush(10'000);
  EXPECT_EQ(g_alloc_count, before);
}

TEST(SliCostTest, EnabledSamplingWithinAWindowAllocatesNothing) {
  auto& hub = SliHub::global();
  hub.clear();
  SliConfig cfg;
  cfg.window = sim::msec(1);
  hub.set_config(cfg);
  hub.set_enabled(true);
  GuestSli* g = hub.guest(9, 0);
  ASSERT_NE(g, nullptr);

  // Per-sample cost is bucket arithmetic on preallocated memory — even past
  // the exact-mode reservoir spill. Allocation may happen only at window
  // close; every sample below stays inside the first window.
  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 5000; ++i) {
    g->rtt(i * 100, 10'000 + (i % 64));
    g->delivered(i * 100, 512);
  }
  EXPECT_EQ(g_alloc_count, before);

  hub.clear();
  hub.set_enabled(false);
  hub.set_config(SliConfig{});
}

}  // namespace
}  // namespace migr::obs
