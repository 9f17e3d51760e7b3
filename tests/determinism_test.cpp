// Determinism guard for the simulator: the 8-host drain scenario runs twice
// in one process and must render byte-identical format_drain_report output
// — once on a fault-free fabric and once under a seeded lossy fault plan,
// both through the transport's bursts, the fabric's delivery lanes and
// pooled events.
// Any hidden global state, pool-reuse ordering effect, or wall-clock
// leakage into the sim shows up as a diff.
//
// Set MIGR_DUMP_DRAIN_REPORT=<dir> to also write the rendered reports to
// <dir>/<fixture>.txt (the names under tests/data) — used to diff a change
// against a pre-change baseline build.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/drain.hpp"
#include "fault/fault.hpp"
#include "ft_scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sli.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace migr::cluster {
namespace {

// Mixed message sizes: 8 KiB messages packetize into two packets, which a
// QP alone in the transmit rotation sends as one burst; 1 KiB messages stay
// single-packet.
TrafficProfile stream_profile() {
  TrafficProfile p;
  p.send_interval = sim::usec(60);
  p.msg_bytes = 8192;
  p.extra_mem_bytes = 1 << 20;
  p.dirty_interval = sim::msec(1);
  return p;
}

TrafficProfile chatty_profile() {
  TrafficProfile p;
  p.send_interval = sim::usec(40);
  p.msg_bytes = 1024;
  p.extra_mem_bytes = 1 << 20;
  p.dirty_interval = sim::msec(1);
  return p;
}

std::string run_drain_once(bool lossy, std::uint32_t streams = 1,
                           bool suppress = false, bool critical_path = false) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = 7;
  ClusterModel model(cfg);
  for (GuestId g = 0; g < 6; ++g) {
    const TrafficProfile prof = (g % 2 == 0) ? stream_profile() : chatty_profile();
    EXPECT_TRUE(model.add_guest(1, 100 + g, prof).is_ok());
    EXPECT_TRUE(model.add_guest(2 + g, 200 + g, prof).is_ok());
    EXPECT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(5));

  fault::ScenarioRunner scenario(model.loop(), model.fabric());
  if (lossy) {
    fault::FaultPlan plan;
    plan.baseline(0.01);
    scenario.run(plan);
  }

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 4;
  scfg.limits.max_concurrent_per_source = 4;
  scfg.limits.max_concurrent_per_dest = 4;
  if (streams > 1) {
    scfg.migration.xfer_streams = streams;
    scfg.migration.xfer_stream_gbps = 25.0;
  }
  scfg.migration.suppress_pages = suppress;
  scfg.migration.critical_path = critical_path;
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  const DrainReport rep = drain.run(1);
  EXPECT_TRUE(rep.ok) << format_drain_report(rep);
  EXPECT_EQ(model.audit_stuck_qps(sim::msec(50)), 0u);
  // For the mux/suppression legs, pin the JSON artifact alongside the text
  // rendering: it carries the per-stream counters and suppression rollups the
  // text report elides, so a nondeterministic stream shard or retry shows up
  // as a byte diff. The legacy config keeps the text-only rendering because
  // the committed pre-change baselines were captured in that format.
  std::string rendered = format_drain_report(rep);
  if (streams > 1 || suppress) {
    rendered += drain_report_json(rep, "precopy", "determinism");
  }
  return rendered;
}

/// A seeded offset in [0, span) ns (splitmix64), as the benchmark phases
/// its traffic sources.
sim::DurationNs seeded_phase(std::uint64_t& rng, sim::DurationNs span) {
  std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<sim::DurationNs>((z ^ (z >> 31)) % static_cast<std::uint64_t>(span));
}

// The repository benchmark's drain8 fleet: 8 pairs sending 2 KiB every
// 20 us and dirtying 2 MiB per 1 ms, each pair connected after a seeded
// phase, host 1 drained at concurrency 4. Beside the text and JSON reports
// it renders fleet totals (messages delivered, ctrl-plane bytes) that move
// with the exact tick at which a poller first sees a completion, so a lost
// poller wakeup shows up as a byte diff.
std::string run_drain8_once(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = seed;
  ClusterModel model(cfg);
  TrafficProfile p;
  p.send_interval = sim::usec(20);
  p.msg_bytes = 2048;
  p.extra_mem_bytes = 2 << 20;
  p.dirty_interval = sim::msec(1);
  std::uint64_t rng = seed;
  for (GuestId g = 0; g < 8; ++g) {
    EXPECT_TRUE(model.add_guest(1, 100 + g, p).is_ok());
    EXPECT_TRUE(model.add_guest(2 + g % 7, 200 + g, p).is_ok());
    // The pair's pollers and traffic start off its WBS threads' grid.
    model.run_for(seeded_phase(rng, p.send_interval));
    EXPECT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
  }
  model.run_for(sim::msec(5));

  SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 4;
  scfg.limits.max_concurrent_per_source = 4;
  scfg.limits.max_concurrent_per_dest = 4;
  MigrationScheduler sched(model, scfg);
  DrainWorkflow drain(model, sched);
  const DrainReport rep = drain.run(1);
  EXPECT_TRUE(rep.ok) << format_drain_report(rep);
  model.run_for(sim::msec(20));

  std::uint64_t sent = 0, received = 0, ctrl_bytes = 0, ctrl_msgs = 0;
  for (GuestId id : model.all_guests()) {
    sent += model.guest(id)->sent();
    received += model.guest(id)->received();
  }
  for (net::HostId h = 1; h <= cfg.hosts; ++h) {
    ctrl_bytes += model.fabric().stats(h).ctrl_bytes_tx;
    ctrl_msgs += model.fabric().stats(h).ctrl_messages_tx;
  }
  return format_drain_report(rep) + drain_report_json(rep, "precopy", "drain8") +
         "\nfleet sent=" + std::to_string(sent) + " received=" + std::to_string(received) +
         " ctrl_bytes=" + std::to_string(ctrl_bytes) + " ctrl_msgs=" +
         std::to_string(ctrl_msgs) + " now_ns=" + std::to_string(model.loop().now()) + "\n";
}

// A seeded kill-primary failover under 1% data-plane loss: the ft_report
// plus every sequence number the partner received and when.
std::string run_lossy_ft_kill_once() {
  testing_ft::FtScenario s(/*seed=*/7);
  net::Faults faults;
  faults.data_loss_prob = 0.01;
  s.world_.fabric().set_faults(faults);
  EXPECT_TRUE(s.protect().is_ok());
  EXPECT_TRUE(s.run_until_protected());
  s.run_for(sim::msec(20));
  s.ctrl_->kill_primary();
  EXPECT_TRUE(s.run_until_done());
  s.run_for(sim::msec(20));
  EXPECT_TRUE(s.report_.ok) << s.report_.error;
  EXPECT_TRUE(s.report_.failed_over);
  std::string out = s.report_.json() + "\nreceived=" + std::to_string(s.received_.size()) + "\n";
  for (std::size_t i = 0; i < s.received_.size(); ++i) {
    out += std::to_string(s.received_[i]) + "@" + std::to_string(s.received_at_[i]) + "\n";
  }
  return out;
}

void maybe_dump(const std::string& rendered, const char* fixture) {
  const char* dir = std::getenv("MIGR_DUMP_DRAIN_REPORT");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream out(std::string(dir) + "/" + fixture + ".txt");
  out << rendered;
}

TEST(DeterminismTest, FaultFreeDrainReportIsByteIdenticalAcrossRuns) {
  const std::string first = run_drain_once(/*lossy=*/false);
  const std::string second = run_drain_once(/*lossy=*/false);
  EXPECT_EQ(first, second);
  maybe_dump(first, "drain_report_clean");
}

TEST(DeterminismTest, LossyDrainReportIsByteIdenticalAcrossRuns) {
  const std::string first = run_drain_once(/*lossy=*/true);
  const std::string second = run_drain_once(/*lossy=*/true);
  EXPECT_EQ(first, second);
  maybe_dump(first, "drain_report_lossy");
}

TEST(DeterminismTest, Drain8ReportIsByteIdenticalAcrossRuns) {
  const std::string first = run_drain8_once(/*seed=*/2);
  const std::string second = run_drain8_once(/*seed=*/2);
  EXPECT_EQ(first, second);
  maybe_dump(first, "drain_report_drain8");
}

TEST(DeterminismTest, LossyFtKillReportIsByteIdenticalAcrossRuns) {
  const std::string first = run_lossy_ft_kill_once();
  const std::string second = run_lossy_ft_kill_once();
  EXPECT_EQ(first, second);
  maybe_dump(first, "ft_report_lossy_kill");
}

// ---------------------------------------------------------------------------
// Parallel-stream mux (multifd) determinism
// ---------------------------------------------------------------------------

// With 4 transfer streams the mux shards each image round-robin across
// `migr.xfer.<id>.<instance>.<k>` ctrl streams; sharding, per-stream
// sequencing, and reassembly must be a pure function of the seed. These legs
// run twice and compare text + JSON (per-stream counters included)
// byte-for-byte; the committed baselines below cover the one-stream default.
TEST(DeterminismTest, MultifdCleanDrainReportIsByteIdenticalAcrossRuns) {
  const std::string first = run_drain_once(/*lossy=*/false, /*streams=*/4);
  const std::string second = run_drain_once(/*lossy=*/false, /*streams=*/4);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, MultifdLossyDrainReportIsByteIdenticalAcrossRuns) {
  const std::string first = run_drain_once(/*lossy=*/true, /*streams=*/4);
  const std::string second = run_drain_once(/*lossy=*/true, /*streams=*/4);
  EXPECT_EQ(first, second);
}

// Suppression rides the same serialized stream of bytes, so flipping it on
// must stay deterministic too — including the zero/delta accounting that the
// JSON rendering pins per run.
TEST(DeterminismTest, MultifdSuppressedDrainReportIsByteIdenticalAcrossRuns) {
  const std::string first =
      run_drain_once(/*lossy=*/true, /*streams=*/4, /*suppress=*/true);
  const std::string second =
      run_drain_once(/*lossy=*/true, /*streams=*/4, /*suppress=*/true);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Pre-change baseline guard
// ---------------------------------------------------------------------------

// tests/data/*.txt were captured via MIGR_DUMP_DRAIN_REPORT. A diff means a
// change altered which events run; re-capture them only in a change that
// explains why.
std::string read_baseline(const char* fixture) {
  const std::string path = std::string(MIGR_TEST_DATA_DIR) + "/" + fixture + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing baseline " << path;
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return body;
}

TEST(DeterminismTest, CleanDrainReportMatchesPreChangeBaseline) {
  EXPECT_EQ(run_drain_once(/*lossy=*/false), read_baseline("drain_report_clean"));
}

TEST(DeterminismTest, LossyDrainReportMatchesPreChangeBaseline) {
  EXPECT_EQ(run_drain_once(/*lossy=*/true), read_baseline("drain_report_lossy"));
}

TEST(DeterminismTest, Drain8ReportMatchesPreChangeBaseline) {
  EXPECT_EQ(run_drain8_once(/*seed=*/2), read_baseline("drain_report_drain8"));
}

TEST(DeterminismTest, LossyFtKillReportMatchesPreChangeBaseline) {
  EXPECT_EQ(run_lossy_ft_kill_once(), read_baseline("ft_report_lossy_kill"));
}

// ---------------------------------------------------------------------------
// Recorder on vs off, clean and lossy
// ---------------------------------------------------------------------------

struct InstrumentedRun {
  std::string report;   // format_drain_report rendering
  std::string metrics;  // registry snapshot, "sim." and "obs.recorder." excluded
  std::uint64_t spans = 0;  // tracer events emitted during the run
};

// One smaller drain (4 guests, 6 hosts), clean or at 1% data loss, with the
// full observability stack armed: tracing on and the flight recorder per
// `recorder_on`. Registry/tracer/recorder are reset at entry so each run
// starts from the same observability state.
InstrumentedRun run_instrumented(bool lossy, bool recorder_on) {
  obs::Registry::global().reset();
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  auto& rec = obs::FlightRecorder::global();
  rec.clear();
  rec.set_enabled(recorder_on);

  InstrumentedRun out;
  {
    ClusterConfig cfg;
    cfg.hosts = 6;
    cfg.seed = 7;
    ClusterModel model(cfg);
    for (GuestId g = 0; g < 4; ++g) {
      const TrafficProfile prof = (g % 2 == 0) ? stream_profile() : chatty_profile();
      EXPECT_TRUE(model.add_guest(1, 100 + g, prof).is_ok());
      EXPECT_TRUE(model.add_guest(2 + g, 200 + g, prof).is_ok());
      EXPECT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
    }
    model.run_for(sim::msec(5));

    fault::ScenarioRunner scenario(model.loop(), model.fabric());
    if (lossy) {
      fault::FaultPlan plan;
      plan.baseline(0.01);
      scenario.run(plan);
    }

    SchedulerConfig scfg;
    scfg.limits.max_concurrent_fleet = 4;
    scfg.limits.max_concurrent_per_source = 4;
    scfg.limits.max_concurrent_per_dest = 4;
    MigrationScheduler sched(model, scfg);
    DrainWorkflow drain(model, sched);
    const DrainReport rep = drain.run(1);
    EXPECT_TRUE(rep.ok) << format_drain_report(rep);
    out.report = format_drain_report(rep);
  }

  // sim.* is wall-clock and event-count bookkeeping; obs.recorder.* counts
  // the recorder's own anomaly dumps, which exist only while it is on.
  for (const auto& e : obs::Registry::global().snapshot()) {
    if (e.name.rfind("sim.", 0) == 0 || e.name.rfind("obs.recorder.", 0) == 0) continue;
    out.metrics += e.name + "=" + std::to_string(e.value) + "," + std::to_string(e.count) + "\n";
  }
  out.spans = tracer.total_emitted();
  tracer.set_enabled(false);
  tracer.clear();
  rec.set_enabled(false);
  rec.clear();
  return out;
}

TEST(DeterminismTest, RecorderOnDoesNotPerturbCleanOrLossyDrain) {
  for (const bool lossy : {false, true}) {
    const InstrumentedRun on = run_instrumented(lossy, /*recorder_on=*/true);
    const InstrumentedRun off = run_instrumented(lossy, /*recorder_on=*/false);
    EXPECT_EQ(on.report, off.report) << (lossy ? "lossy" : "clean");
    EXPECT_EQ(on.metrics, off.metrics) << (lossy ? "lossy" : "clean");
    EXPECT_EQ(on.spans, off.spans) << (lossy ? "lossy" : "clean");
  }
}

// ---------------------------------------------------------------------------
// Brownout SLI pipeline on vs off
// ---------------------------------------------------------------------------

struct SliRun {
  std::string report;   // format_drain_report rendering
  std::string metrics;  // registry snapshot, "sim." and "slo." excluded
  std::string timeline; // SliHub window CSV (empty when SLI is off)
};

// The lossy 8-host drain with the SLI hub optionally armed (plus a burn-rate
// engine, observe-only: the scheduler's slo_defer stays off). The pipeline
// must be invisible to the simulation — it never schedules loop events — so
// the drain report and every non-sim./slo. metric must not move when it is
// switched on.
SliRun run_with_sli(bool sli_on) {
  obs::Registry::global().reset();
  auto& hub = obs::SliHub::global();
  hub.clear();
  hub.set_enabled(sli_on);
  std::vector<obs::SloRule> rules;
  std::unique_ptr<obs::SloEngine> engine;
  if (sli_on) {
    std::string err;
    EXPECT_TRUE(obs::parse_slo_spec("p99<60us,budget=0.05,fast=400us,slow=4ms,burn=2",
                                    &rules, &err))
        << err;
    engine = std::make_unique<obs::SloEngine>(std::move(rules));
    hub.set_slo_engine(engine.get());
  }

  SliRun out;
  {
    ClusterConfig cfg;
    cfg.hosts = 8;
    cfg.seed = 7;
    ClusterModel model(cfg);
    model.enable_sli(hub);  // no-op taps while the hub is disabled
    for (GuestId g = 0; g < 6; ++g) {
      const TrafficProfile prof = (g % 2 == 0) ? stream_profile() : chatty_profile();
      EXPECT_TRUE(model.add_guest(1, 100 + g, prof).is_ok());
      EXPECT_TRUE(model.add_guest(2 + g, 200 + g, prof).is_ok());
      EXPECT_TRUE(model.connect_guests(100 + g, 200 + g).is_ok());
    }
    model.run_for(sim::msec(5));

    fault::ScenarioRunner scenario(model.loop(), model.fabric());
    fault::FaultPlan plan;
    plan.baseline(0.01);
    scenario.run(plan);

    SchedulerConfig scfg;
    scfg.limits.max_concurrent_fleet = 4;
    scfg.limits.max_concurrent_per_source = 4;
    scfg.limits.max_concurrent_per_dest = 4;
    MigrationScheduler sched(model, scfg);
    DrainWorkflow drain(model, sched);
    const DrainReport rep = drain.run(1);
    EXPECT_TRUE(rep.ok) << format_drain_report(rep);
    out.report = format_drain_report(rep);
    // Close live windows while the retransmit sources (transport objects
    // owned by the model) are still alive.
    hub.flush(model.loop().now());
  }

  for (const auto& e : obs::Registry::global().snapshot()) {
    if (e.name.rfind("sim.", 0) == 0) continue;
    if (e.name.rfind("slo.", 0) == 0) continue;  // only exists when armed
    out.metrics += e.name + "=" + std::to_string(e.value) + "," + std::to_string(e.count) + "\n";
  }
  if (sli_on) out.timeline = hub.export_csv();
  hub.set_slo_engine(nullptr);
  hub.clear();
  hub.set_enabled(false);
  return out;
}

TEST(DeterminismTest, SliPipelineIsInvisibleToTheSimulation) {
  const SliRun off = run_with_sli(/*sli_on=*/false);
  const SliRun on = run_with_sli(/*sli_on=*/true);
  EXPECT_EQ(off.report, on.report);
  EXPECT_EQ(off.metrics, on.metrics);
  EXPECT_TRUE(off.timeline.empty());
  EXPECT_FALSE(on.timeline.empty());
}

TEST(DeterminismTest, SliTimelineIsByteIdenticalAcrossRuns) {
  const SliRun first = run_with_sli(/*sli_on=*/true);
  const SliRun second = run_with_sli(/*sli_on=*/true);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.timeline, second.timeline);
}

// ---------------------------------------------------------------------------
// Critical-path attribution on vs off
// ---------------------------------------------------------------------------

// The CpRecorder only appends already-known sim times to a vector — it must
// never schedule events, consume RNG, or otherwise touch the timeline. So a
// cp-on drain report is the cp-off report plus the purely additive
// "critical_path ..." / "cp edge=..." rollup lines, and every non-obs.*
// metric is identical.
std::string strip_cp_lines(const std::string& rendered) {
  std::string out;
  std::size_t pos = 0;
  while (pos < rendered.size()) {
    std::size_t eol = rendered.find('\n', pos);
    if (eol == std::string::npos) eol = rendered.size() - 1;
    const std::string line = rendered.substr(pos, eol - pos + 1);
    if (line.rfind("critical_path ", 0) != 0 && line.rfind("cp edge=", 0) != 0) {
      out += line;
    }
    pos = eol + 1;
  }
  return out;
}

struct CpRun {
  std::string report;
  std::string metrics;  // registry snapshot, "sim."/"obs." excluded
};

CpRun run_with_cp(bool cp_on) {
  obs::Registry::global().reset();
  CpRun out;
  out.report = run_drain_once(/*lossy=*/true, /*streams=*/1,
                              /*suppress=*/false, /*critical_path=*/cp_on);
  for (const auto& e : obs::Registry::global().snapshot()) {
    if (e.name.rfind("sim.", 0) == 0) continue;
    if (e.name.rfind("obs.", 0) == 0) continue;  // tracer bookkeeping
    out.metrics += e.name + "=" + std::to_string(e.value) + "," + std::to_string(e.count) + "\n";
  }
  return out;
}

TEST(DeterminismTest, CriticalPathRecorderIsInvisibleToTheSimulation) {
  const CpRun off = run_with_cp(/*cp_on=*/false);
  const CpRun on = run_with_cp(/*cp_on=*/true);
  // cp-on renders extra rollup lines; everything else is byte-identical.
  EXPECT_NE(on.report, off.report);
  EXPECT_EQ(strip_cp_lines(on.report), off.report);
  EXPECT_EQ(on.metrics, off.metrics);
}

TEST(DeterminismTest, CriticalPathReportIsByteIdenticalAcrossRuns) {
  const CpRun first = run_with_cp(/*cp_on=*/true);
  const CpRun second = run_with_cp(/*cp_on=*/true);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.metrics, second.metrics);
}

}  // namespace
}  // namespace migr::cluster
