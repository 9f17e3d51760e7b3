// Unified telemetry layer: registry semantics, histogram percentile edges,
// trace JSON well-formedness, hostile strings through every artifact writer,
// and the cross-check that the blackout slices a seeded migration emits
// reproduce MigrationReport's blackout breakdown field-for-field.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/perftest.hpp"
#include "cluster/drain.hpp"
#include "ft/ft.hpp"
#include "migr/migration.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rnic/world.hpp"

namespace migr::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry / counter / label semantics
// ---------------------------------------------------------------------------

TEST(RegistryTest, CounterIncrementsAndResolvesOnce) {
  Registry reg;
  Counter& c = reg.counter("test.hits");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same cell.
  EXPECT_EQ(&reg.counter("test.hits"), &c);
  EXPECT_EQ(reg.counter("test.hits").value(), 42u);
}

TEST(RegistryTest, LabelsMakeDistinctInstruments) {
  Registry reg;
  Counter& a = reg.counter("link.bytes", {{"link", "1-2"}});
  Counter& b = reg.counter("link.bytes", {{"link", "2-1"}});
  EXPECT_NE(&a, &b);
  a.inc(10);
  b.inc(20);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "link.bytes{link=1-2}");
  EXPECT_EQ(snap[0].value, 10.0);
  EXPECT_EQ(snap[1].name, "link.bytes{link=2-1}");
  EXPECT_EQ(snap[1].value, 20.0);
}

TEST(RegistryTest, RenderNameFormatsLabels) {
  EXPECT_EQ(Registry::render_name("n", {}), "n");
  EXPECT_EQ(Registry::render_name("n", {{"a", "1"}, {"b", "x"}}), "n{a=1,b=x}");
}

TEST(RegistryTest, SourcesArePolledAtSnapshotAndUnregister) {
  Registry reg;
  double v = 7;
  auto id = reg.register_source("src", {{"host", "1"}}, [&] {
    return std::vector<std::pair<std::string, double>>{{"field", v}};
  });
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "src{host=1}.field");
  EXPECT_EQ(snap[0].value, 7.0);
  v = 8;  // polled, not copied
  EXPECT_EQ(reg.snapshot()[0].value, 8.0);
  reg.unregister_source(id);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(RegistryTest, ResetZeroesInstrumentsButKeepsThem) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  c.inc(5);
  g.set(3.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(&reg.counter("c"), &c);
}

TEST(RegistryTest, DisabledRegistryHandsOutDummies) {
  Registry reg;
  reg.set_enabled(false);
  Counter& c = reg.counter("hidden");
  c.inc(99);
  EXPECT_TRUE(reg.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Histogram percentile edges
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.percentile(100), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_TRUE(h.exact());
}

TEST(HistogramTest, ExactModeReproducesNearestRankExactly) {
  Histogram h;
  // The DrainReport formula: rank = ceil(p/100*n) clamped to [1,n],
  // answer = sorted[rank-1]. Values chosen to straddle bucket boundaries.
  for (std::int64_t v : {731, 12, 99841, 5, 731, 64, 63}) h.record(v);
  // sorted: 5 12 63 64 731 731 99841 (n=7)
  EXPECT_EQ(h.percentile(0), 5);     // rank clamps up to 1
  EXPECT_EQ(h.percentile(50), 64);   // ceil(3.5) = 4
  EXPECT_EQ(h.percentile(99), 99841);
  EXPECT_EQ(h.percentile(100), 99841);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 99841);
  EXPECT_TRUE(h.exact());
}

TEST(HistogramTest, SubMinimumValuesClampToBucketZero) {
  Histogram h;
  h.record(-50);  // below the representable range
  h.record(3);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), -50);           // true min survives
  EXPECT_EQ(h.percentile(1), -50);   // exact mode: the raw sample
  EXPECT_EQ(h.bucket_count(0), 1u);  // but bucketed as 0
}

TEST(HistogramTest, OverMaximumValuesLandInTopBucketWithExactMax) {
  Histogram h(/*exact_capacity=*/1);
  const std::int64_t huge = std::int64_t{1} << 62;
  h.record(huge + 12345);
  h.record(7);  // spills the 1-sample reservoir -> bucketed mode
  EXPECT_FALSE(h.exact());
  EXPECT_EQ(h.max(), huge + 12345);
  // Bucketed p100 would report a bucket bound; it must clamp to max.
  EXPECT_EQ(h.percentile(100), huge + 12345);
  EXPECT_EQ(h.percentile(1), 7);  // clamped up to the observed min
}

TEST(HistogramTest, SketchModeBoundsRelativeError) {
  Histogram h(/*exact_capacity=*/0);  // force bucketed answers immediately
  for (std::int64_t v = 1; v <= 100000; v += 7) h.record(v);
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = p / 100.0 * 100000.0;
    const double got = static_cast<double>(h.percentile(p));
    EXPECT_GE(got, exact * 0.96) << "p" << p;
    EXPECT_LE(got, exact * 1.04) << "p" << p;
  }
}

TEST(HistogramTest, MergeOfDisjointRangesCoversBoth) {
  Histogram lo(/*exact_capacity=*/0), hi(/*exact_capacity=*/0);
  for (int i = 0; i < 100; ++i) lo.record(10 + i % 5);
  for (int i = 0; i < 100; ++i) hi.record(1'000'000 + i);
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 200u);
  EXPECT_EQ(lo.min(), 10);
  EXPECT_EQ(lo.max(), 1'000'099);
  EXPECT_LE(lo.percentile(25), 14);        // low half intact
  EXPECT_GE(lo.percentile(75), 1'000'000);  // high half intact
}

TEST(HistogramTest, MergeKeepsExactModeWhileSamplesFit) {
  Histogram a, b;
  for (std::int64_t v : {1, 5, 9}) a.record(v);
  for (std::int64_t v : {2, 6}) b.record(v);
  a.merge(b);
  ASSERT_TRUE(a.exact());
  // sorted: 1 2 5 6 9 -> p50 = ceil(2.5)=3rd = 5
  EXPECT_EQ(a.percentile(50), 5);
  EXPECT_EQ(a.count(), 5u);
}

TEST(HistogramTest, MergeIntoEmptyAndReset) {
  Histogram a, b;
  b.record(42);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.percentile(50), 42);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.percentile(99), 0);
  EXPECT_TRUE(a.exact());
  a.record(7);  // usable again after reset
  EXPECT_EQ(a.percentile(50), 7);
}

TEST(HistogramTest, ReservoirSpillDegradesGracefully) {
  Histogram h(/*exact_capacity=*/64);
  for (std::int64_t v = 1; v <= 64; ++v) h.record(v);
  EXPECT_TRUE(h.exact());
  EXPECT_EQ(h.percentile(50), 32);  // exact
  h.record(65);  // spill
  EXPECT_FALSE(h.exact());
  // Bucketed now, but values <= 63 have exact unit buckets so small
  // percentiles stay exact and the top is clamped to max.
  EXPECT_EQ(h.percentile(1), 1);
  EXPECT_EQ(h.percentile(100), 65);
  EXPECT_EQ(h.count(), 65u);
}

// ---------------------------------------------------------------------------
// Tracer: ring semantics and Chrome JSON export
// ---------------------------------------------------------------------------

// Minimal JSON parser: enough for the trace-event format we emit (objects,
// arrays, strings with escapes, numbers, bools). Parsing the export with it
// is the well-formedness check.
struct Json {
  enum class Type { object, array, string, number, boolean, null } type = Type::null;
  std::map<std::string, Json> obj;
  std::vector<Json> arr;
  std::string str;
  double num = 0;
  bool b = false;

  const Json& at(const std::string& k) const {
    static const Json kNull;
    auto it = obj.find(k);
    return it == obj.end() ? kNull : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(Json& out) { return value(out) && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      pos_++;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  bool value(Json& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.type = Json::Type::string; return string(out.str);
      case 't': out.type = Json::Type::boolean; out.b = true; return literal("true");
      case 'f': out.type = Json::Type::boolean; out.b = false; return literal("false");
      case 'n': out.type = Json::Type::null; return literal("null");
      default: out.type = Json::Type::number; return number(out.num);
    }
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool object(Json& out) {
    out.type = Json::Type::object;
    if (!consume('{')) return false;
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      skip_ws();
      if (!string(key)) return false;
      if (!consume(':')) return false;
      Json v;
      if (!value(v)) return false;
      out.obj.emplace(std::move(key), std::move(v));
      if (consume(',')) continue;
      return consume('}');
    }
  }
  bool array(Json& out) {
    out.type = Json::Type::array;
    if (!consume('[')) return false;
    if (consume(']')) return true;
    for (;;) {
      Json v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      if (consume(',')) continue;
      return consume(']');
    }
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    pos_++;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        pos_++;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            // The writers \u-escape control bytes only; anything wider reads
            // back as '?'.
            if (pos_ + 4 >= s_.size()) return false;
            const unsigned long cp = std::stoul(s_.substr(pos_ + 1, 4), nullptr, 16);
            out += cp < 0x80 ? static_cast<char>(cp) : '?';
            pos_ += 4;
            break;
          }
          default: out += s_[pos_];
        }
      } else {
        out += s_[pos_];
      }
      pos_++;
    }
    if (pos_ >= s_.size()) return false;
    pos_++;  // closing quote
    return true;
  }
  bool number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) pos_++;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      pos_++;
    }
    if (pos_ == start) return false;
    out = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer t(16);
  t.instant(100, "ev", "cat");
  EXPECT_EQ(t.size(), 0u);
}

TEST(TracerTest, RecordsAndOrdersEvents) {
  Tracer t(16);
  t.set_enabled(true);
  t.begin(100, "span", "cat");
  t.end(300, "span", "cat");
  t.instant(200, "mark", "cat");
  t.complete(400, 50, "block", "cat2");
  ASSERT_EQ(t.size(), 4u);
  auto evs = t.events();
  EXPECT_EQ(evs[0].ph, TraceEvent::Phase::begin);
  EXPECT_EQ(evs[1].ph, TraceEvent::Phase::end);
  EXPECT_EQ(evs[2].name, "mark");
  EXPECT_EQ(evs[3].dur_ns, 50);
  EXPECT_EQ(t.total_emitted(), 4u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, RingDropsOldestOnOverflow) {
  Tracer t(4);
  t.set_enabled(true);
  for (int i = 0; i < 10; ++i) t.instant(i, "e" + std::to_string(i), "c");
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_emitted(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  auto evs = t.events();
  EXPECT_EQ(evs.front().name, "e6");  // oldest survivor
  EXPECT_EQ(evs.back().name, "e9");
}

TEST(TracerTest, ChromeJsonParsesAndCarriesExactNs) {
  Tracer t(64);
  t.set_enabled(true);
  t.complete(1'234'567, 89'123, "phase \"x\"\n", "migr", "\"k\":7");
  t.instant(5'000'000, "mark", "rnic");

  Json root;
  ASSERT_TRUE(JsonParser(t.export_chrome_json()).parse(root));
  const Json& evs = root.at("traceEvents");
  ASSERT_EQ(evs.type, Json::Type::array);

  // Skip thread_name metadata; find our two events.
  const Json* complete = nullptr;
  const Json* instant = nullptr;
  for (const auto& e : evs.arr) {
    if (e.at("ph").str == "X") complete = &e;
    if (e.at("ph").str == "i") instant = &e;
  }
  ASSERT_NE(complete, nullptr);
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(complete->at("name").str, "phase \"x\"\n");  // escaping round-trips
  EXPECT_EQ(complete->at("ts").num, 1234.567);           // µs
  EXPECT_EQ(complete->at("dur").num, 89.123);
  EXPECT_EQ(complete->at("args").at("ts_ns").num, 1234567.0);  // exact ns
  EXPECT_EQ(complete->at("args").at("dur_ns").num, 89123.0);
  EXPECT_EQ(complete->at("args").at("k").num, 7.0);
  EXPECT_EQ(instant->at("cat").str, "rnic");
  // Different categories land on different tracks (tids).
  EXPECT_NE(complete->at("tid").num, instant->at("tid").num);
}

// ---------------------------------------------------------------------------
// Every artifact writer escapes what it is handed
// ---------------------------------------------------------------------------

// A name with a quote, a backslash, a newline and a control byte, 300
// characters long: each artifact that carries a caller's string must still
// parse and give the string back unchanged.
std::string hostile_string() {
  std::string s = "tail \"p99\" \\ x\nnext\x01line ";
  while (s.size() < 300) s += static_cast<char>('a' + s.size() % 26);
  return s;
}

Json parsed(const std::string& text) {
  Json root;
  EXPECT_TRUE(JsonParser(text).parse(root)) << text.substr(0, 400);
  return root;
}

const Json& first(const Json& array) {
  static const Json kNull;
  return array.arr.empty() ? kNull : array.arr[0];
}

TEST(ArtifactEscapeTest, HostileStringsRoundTripThroughEveryWriter) {
  const std::string name = hostile_string();
  ASSERT_EQ(name.size(), 300u);

  SloRule rule;
  rule.name = name;
  const SloEngine engine({rule});
  SliHub hub;
  const Json slo = parsed(export_slo_json(hub, &engine, "scenario"));
  EXPECT_EQ(first(slo.at("rules")).at("name").str, name);

  ft::FtReport ft;
  ft.error = name;
  ft.failover_reason = name;
  const Json ftj = parsed(ft.json());
  EXPECT_EQ(ftj.at("error").str, name);
  EXPECT_EQ(ftj.at("failover").at("reason").str, name);

  const Json drain = parsed(cluster::drain_report_json(cluster::DrainReport{}, name, name));
  EXPECT_EQ(drain.at("scenario").str, name);
  EXPECT_EQ(drain.at("mode").str, name);

  CpRecorder rec;
  rec.set_enabled(true);
  rec.add(0, 10, EdgeClass::ckpt_dump, name);
  const Json cp = parsed(common::to_json(rec.resolve(0, 10)));
  EXPECT_EQ(first(cp.at("edges")).at("label").str, name);

  Registry reg;
  reg.counter("hostile", {{"label", name}}).inc();
  TimeSeriesSampler sampler(reg);
  sampler.sample(0);
  const Json ts = parsed(sampler.export_json());
  EXPECT_EQ(first(ts.at("series")).at("name").str,
            Registry::render_name("hostile", {{"label", name}}));

  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.complete(0, 1, name, "cat");
  const Json trace = parsed(tracer.export_chrome_json());
  std::string span_name;
  for (const Json& e : trace.at("traceEvents").arr) {
    if (e.at("ph").str == "X") span_name = e.at("name").str;
  }
  EXPECT_EQ(span_name, name);

  FlightRecorder recorder;
  recorder.set_enabled(true);
  EXPECT_EQ(parsed(recorder.trigger_dump(0, name, {})).at("reason").str, name);
}

// ---------------------------------------------------------------------------
// End-to-end: spans of a seeded migration reproduce MigrationReport exactly
// ---------------------------------------------------------------------------

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().set_clock(nullptr);
    Tracer::global().clear();
  }
};

TEST_F(ObsEndToEndTest, TracedSpansMatchMigrationReportFieldForField) {
  rnic::World world({}, /*seed=*/7);
  Tracer::global().set_clock(&world.loop());
  migrlib::GuestDirectory directory;
  std::vector<std::unique_ptr<migrlib::MigrRdmaRuntime>> rts;
  for (net::HostId h = 1; h <= 3; ++h) {
    rts.push_back(std::make_unique<migrlib::MigrRdmaRuntime>(directory, world.add_device(h),
                                                             world.fabric()));
  }

  apps::PerftestConfig cfg;
  cfg.num_qps = 4;
  cfg.msg_size = 4096;
  cfg.queue_depth = 8;
  apps::PerftestPeer sender(*rts[0], world.add_process("tx"), 100,
                            apps::PerftestPeer::Role::sender, cfg);
  apps::PerftestPeer receiver(*rts[2], world.add_process("rx"), 200,
                              apps::PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    ASSERT_TRUE(apps::PerftestPeer::connect_pair(sender, i, receiver, i).is_ok());
  }
  sender.start();
  receiver.start();
  world.loop().run_for(sim::msec(2));

  migrlib::MigrationController ctl(world.loop(), world.fabric(), directory, {});
  auto& dest = world.add_process("restored");
  migrlib::MigrationReport rep;
  bool done = false;
  ASSERT_TRUE(ctl.start(100, 2, dest, &sender, [&](const migrlib::MigrationReport& r) {
                   rep = r;
                   done = true;
                 })
                  .is_ok());
  while (!done && world.loop().now() < sim::sec(120)) world.loop().run_for(sim::msec(1));
  ASSERT_TRUE(rep.ok) << rep.error;

  // Parse the Chrome export and index the migration-phase complete-events
  // by name -> (ts_ns, dur_ns), using the exact integers carried in args.
  // Workflow steps are `migr` spans; the blackout's steps are its slices on
  // the `migr.blackout` track.
  Json root;
  ASSERT_TRUE(JsonParser(Tracer::global().export_chrome_json()).parse(root));
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> spans;
  std::map<std::string, std::int64_t> instants;
  for (const auto& e : root.at("traceEvents").arr) {
    const std::string& cat = e.at("cat").str;
    if (cat != "migr" && cat != "migr.blackout") continue;
    const std::string& name = e.at("name").str;
    if (e.at("ph").str == "X") {
      spans[name] = {static_cast<std::int64_t>(e.at("args").at("ts_ns").num),
                     static_cast<std::int64_t>(e.at("args").at("dur_ns").num)};
    } else if (e.at("ph").str == "i") {
      instants[name] = static_cast<std::int64_t>(e.at("args").at("ts_ns").num);
    }
  }

  // Every stop-and-copy step must be present...
  for (const char* required : {"pre_dump", "partial_restore", "rdma_pre_setup",
                               "wait_before_stop", "dump_others", "dump_rdma", "transfer",
                               "full_restore", "restore_rdma", "migration"}) {
    ASSERT_TRUE(spans.contains(required)) << "missing span: " << required;
  }
  for (const char* required : {"suspend", "freeze", "resume", "map_resources", "replay"}) {
    ASSERT_TRUE(instants.contains(required)) << "missing instant: " << required;
  }

  // ...and the durations must equal the report's blackout breakdown exactly.
  EXPECT_EQ(spans["dump_rdma"].second, rep.dump_rdma);
  EXPECT_EQ(spans["dump_others"].second, rep.dump_others);
  EXPECT_EQ(spans["transfer"].second, rep.transfer);
  EXPECT_EQ(spans["restore_rdma"].second, rep.restore_rdma);
  EXPECT_EQ(spans["full_restore"].second, rep.full_restore);
  EXPECT_EQ(spans["rdma_pre_setup"].second, rep.presetup_restore_rdma);
  EXPECT_EQ(spans["wait_before_stop"].second, rep.wbs_elapsed);
  EXPECT_EQ(spans["wait_before_stop"].first, rep.suspend_at);
  EXPECT_EQ(spans["migration"].first, rep.start);
  EXPECT_EQ(spans["migration"].second, rep.resume_at - rep.start);

  // Phase-boundary instants line up with the report timestamps.
  EXPECT_EQ(instants["suspend"], rep.suspend_at);
  EXPECT_EQ(instants["freeze"], rep.freeze_at);
  EXPECT_EQ(instants["resume"], rep.resume_at);

  // The stop-and-copy components tile [freeze, ...] back to back.
  EXPECT_EQ(spans["dump_others"].first, rep.freeze_at);
  EXPECT_EQ(spans["dump_rdma"].first, rep.freeze_at + rep.dump_others);
  EXPECT_EQ(spans["restore_rdma"].first,
            spans["full_restore"].first + rep.full_restore);

  // The registry gauges published at resume carry the same values.
  auto snap = Registry::global().snapshot();
  auto gauge = [&](const std::string& name) -> double {
    for (const auto& e : snap) {
      if (e.name == name) return e.value;
    }
    return -1;
  };
  EXPECT_EQ(gauge("migr.report.dump_rdma_ns"), static_cast<double>(rep.dump_rdma));
  EXPECT_EQ(gauge("migr.report.transfer_ns"), static_cast<double>(rep.transfer));
  EXPECT_EQ(gauge("migr.report.restore_rdma_ns"), static_cast<double>(rep.restore_rdma));
  EXPECT_EQ(gauge("migr.report.service_blackout_ns"),
            static_cast<double>(rep.service_blackout()));

  // The RNIC and fabric instrumented the traffic along the way.
  EXPECT_GT(gauge("rnic.wqe_posted{host=1}"), 0.0);
  EXPECT_GT(gauge("rnic.cqe_delivered{host=1}"), 0.0);
  EXPECT_GT(gauge("fabric.link.bytes{link=1-3}"), 0.0);
  EXPECT_GT(gauge("rnic.qp_transitions{host=1,to=rts}"), 0.0);
}

TEST_F(ObsEndToEndTest, EventLoopAccountsDispatchesInRegistry) {
  Registry::global().reset();
  sim::EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { fired++; });
  loop.schedule_at(20, [&] { fired++; });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.events_dispatched(), 2u);
  auto snap = Registry::global().snapshot();
  for (const auto& e : snap) {
    if (e.name == "sim.events_dispatched") {
      EXPECT_GE(e.value, 2.0);
    }
  }
}

}  // namespace
}  // namespace migr::obs
