// Simulator fast-path benchmark: events/sec, wall-ns-per-sim-sec, and heap
// allocation counts across three workloads of increasing realism:
//
//   event_core — raw EventLoop dispatch throughput (64 self-rescheduling
//                chains, no network), isolating the event core itself;
//   stream     — 2-host RC perftest streaming 256 KiB WRITEs through 4 QPs
//                (multi-packet trains: the burst-coalescing sweet spot);
//   drain8     — the 8-host fleet drain from bench_cluster_drain at
//                concurrency 4: live traffic + dirty memory + migration
//                machinery, the ROADMAP's canonical heavy workload.
//
// Allocation counts come from a counting global operator new in this TU —
// no sanitizer or malloc-hook dependency, so the numbers are valid in any
// optimized build. Results are printed as a table and written to
// BENCH_simrate.json (tools/ci.sh's perf-smoke stage records the file and
// compares wall time against the previous run).
//
//   build/bench/bench_simrate [output.json]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "bench_util.hpp"
#include "cluster/drain.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sli.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every path in the process funnels through these.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_alloc_count = 0;
std::uint64_t g_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count++;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_alloc_count++;
  g_alloc_bytes += n;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
// Every delete frees through one out-of-line helper: std::free inlined
// into a caller that got the pointer from operator new reads to GCC as
// a mismatched pair (-Wmismatched-new-delete), though operator new here
// is malloc.
namespace {
[[gnu::noinline]] void free_counted(void* p) noexcept { std::free(p); }
}  // namespace
void operator delete(void* p) noexcept { free_counted(p); }
void operator delete(void* p, std::size_t) noexcept { free_counted(p); }
void operator delete(void* p, std::align_val_t) noexcept { free_counted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { free_counted(p); }
void operator delete[](void* p) noexcept { free_counted(p); }
void operator delete[](void* p, std::size_t) noexcept { free_counted(p); }
void operator delete[](void* p, std::align_val_t) noexcept { free_counted(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { free_counted(p); }

namespace migr::bench {
namespace {

struct Measurement {
  std::uint64_t events = 0;    // loop events dispatched
  std::uint64_t wall_ns = 1;   // wall time inside run()
  std::uint64_t sim_ns = 1;    // simulated time advanced
  std::uint64_t allocs = 0;    // operator-new calls during the run
  std::uint64_t alloc_bytes = 0;

  double events_per_sec() const {
    return static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
  double wall_ns_per_sim_sec() const {
    return static_cast<double>(wall_ns) * 1e9 / static_cast<double>(sim_ns);
  }
  double allocs_per_event() const {
    return events ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
  }
};

/// Snapshot loop + allocator counters around `body` (which must pump `loop`).
template <typename Body>
Measurement measure(sim::EventLoop& loop, Body&& body) {
  Measurement m;
  const std::uint64_t ev0 = loop.events_dispatched();
  const std::uint64_t wall0 = loop.wall_ns_in_run();
  const sim::TimeNs sim0 = loop.now();
  const std::uint64_t al0 = g_alloc_count;
  const std::uint64_t ab0 = g_alloc_bytes;
  body();
  m.events = loop.events_dispatched() - ev0;
  m.wall_ns = std::max<std::uint64_t>(1, loop.wall_ns_in_run() - wall0);
  m.sim_ns = std::max<std::int64_t>(1, loop.now() - sim0);
  m.allocs = g_alloc_count - al0;
  m.alloc_bytes = g_alloc_bytes - ab0;
  return m;
}

// --------------------------------------------------------------------------
// Workload 1: raw event-core dispatch.
// --------------------------------------------------------------------------

struct Chain {
  sim::EventLoop* loop = nullptr;
  std::uint64_t left = 0;
  void fire() {
    if (left-- > 1) {
      loop->schedule_in(100, [this] { fire(); });
    }
  }
};

Measurement run_event_core() {
  sim::EventLoop loop;
  constexpr int kChains = 64;
  constexpr std::uint64_t kPerChain = 40'000;
  std::vector<Chain> chains(kChains);
  for (auto& c : chains) {
    c.loop = &loop;
    c.left = kPerChain;
    loop.schedule_in(100, [&c] { c.fire(); });
  }
  // A slab-churn side dish: schedule-then-cancel pairs, the pattern every
  // retransmit timer and watchdog produces.
  std::vector<sim::EventHandle> cancelled;
  cancelled.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    cancelled.push_back(loop.schedule_in(50, [] { std::abort(); }));
  }
  for (auto& h : cancelled) h.cancel();
  return measure(loop, [&] { loop.run(); });
}

// --------------------------------------------------------------------------
// Workload 2: RC streaming (multi-packet message trains).
// --------------------------------------------------------------------------

Measurement run_stream(double* out_gbps) {
  Cluster cluster(2);
  PerftestConfig cfg;
  cfg.num_qps = 4;
  cfg.msg_size = 256 * 1024;  // 64 MTU-sized packets per message
  cfg.queue_depth = 4;
  cfg.opcode = rnic::WrOpcode::rdma_write;
  PerftestPeer sender(cluster.runtime(1), cluster.world().add_process("tx"), 100,
                      PerftestPeer::Role::sender, cfg);
  PerftestPeer receiver(cluster.runtime(2), cluster.world().add_process("rx"), 200,
                        PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    if (!PerftestPeer::connect_pair(sender, i, receiver, i).is_ok()) std::exit(1);
  }
  sender.start();
  receiver.start();
  cluster.run_for(sim::msec(5));  // warm up pools + steady state
  const std::uint64_t bytes0 = sender.stats().completed_bytes;
  constexpr sim::DurationNs kRun = sim::msec(200);
  Measurement m = measure(cluster.loop(), [&] { cluster.run_for(kRun); });
  if (out_gbps != nullptr) {
    *out_gbps = static_cast<double>(sender.stats().completed_bytes - bytes0) * 8.0 /
                static_cast<double>(kRun);
  }
  sender.stop();
  receiver.stop();
  return m;
}

// --------------------------------------------------------------------------
// Workload 3: the 8-host drain (bench_cluster_drain's scenario, conc 4).
// --------------------------------------------------------------------------

// With sli_taps the brownout SLI taps are wired while the hub stays
// disarmed: every guest caches a null GuestSli*, so the data path carries
// exactly one branch per message and nothing else. main() pins that run
// against the plain one — same events, zero extra allocations.
Measurement run_drain8(bool* out_ok, bool sli_taps = false) {
  cluster::ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = 42;
  cluster::ClusterModel model(cfg);
  if (sli_taps) model.enable_sli(migr::obs::SliHub::global());
  cluster::TrafficProfile profile;
  profile.send_interval = sim::usec(20);
  profile.msg_bytes = 2048;
  profile.extra_mem_bytes = 2 << 20;
  profile.dirty_interval = sim::msec(1);
  for (cluster::GuestId g = 0; g < 8; ++g) {
    (void)model.add_guest(1, 100 + g, profile).value();
    (void)model.add_guest(2 + g % 7, 200 + g, profile).value();
    if (!model.connect_guests(100 + g, 200 + g).is_ok()) std::exit(1);
  }
  model.run_for(sim::msec(5));

  cluster::SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 4;
  scfg.limits.max_concurrent_per_source = 4;
  scfg.limits.max_concurrent_per_dest = 4;
  cluster::MigrationScheduler sched(model, scfg);
  cluster::DrainWorkflow drain(model, sched);
  cluster::DrainReport report;
  Measurement m = measure(model.loop(), [&] { report = drain.run(1); });
  if (out_ok != nullptr) *out_ok = report.ok;
  return m;
}

// Pull drain8's wall_ns_per_sim_sec out of a prior BENCH_simrate.json
// without a JSON library: find the "drain8" object, then that key.
double baseline_drain8_wall_ns_per_sim_sec(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0.0;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::size_t at = text.find("\"drain8\"");
  if (at == std::string::npos) return 0.0;
  const std::string key = "\"wall_ns_per_sim_sec\":";
  const std::size_t k = text.find(key, at);
  if (k == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + k + key.size(), nullptr);
}

void print_measurement(const char* name, const Measurement& m) {
  std::printf("%12s %14llu %10.2f %14.0f %12.0f %10.2f\n", name,
              static_cast<unsigned long long>(m.events),
              static_cast<double>(m.wall_ns) / 1e6, m.events_per_sec(),
              m.wall_ns_per_sim_sec(), m.allocs_per_event());
}

void json_measurement(FILE* f, const char* name, const Measurement& m, bool last) {
  std::fprintf(f,
               "    \"%s\": {\"events\": %llu, \"wall_ns\": %llu, \"sim_ns\": %llu, "
               "\"events_per_sec\": %.0f, \"wall_ns_per_sim_sec\": %.0f, "
               "\"allocs\": %llu, \"alloc_bytes\": %llu, \"allocs_per_event\": %.3f}%s\n",
               name, static_cast<unsigned long long>(m.events),
               static_cast<unsigned long long>(m.wall_ns),
               static_cast<unsigned long long>(m.sim_ns), m.events_per_sec(),
               m.wall_ns_per_sim_sec(), static_cast<unsigned long long>(m.allocs),
               static_cast<unsigned long long>(m.alloc_bytes), m.allocs_per_event(),
               last ? "" : ",");
}

}  // namespace
}  // namespace migr::bench

int main(int argc, char** argv) {
  using namespace migr::bench;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_simrate.json";

  print_header("Simulator fast-path benchmark (events/sec, wall/sim, allocs/event)");
  std::printf("%12s %14s %10s %14s %12s %10s\n", "workload", "events", "wall_ms",
              "events/s", "ns/sim_s", "allocs/ev");

  const Measurement core = run_event_core();
  print_measurement("event_core", core);

  double stream_gbps = 0;
  const Measurement stream = run_stream(&stream_gbps);
  print_measurement("stream", stream);
  std::printf("%12s goodput: %.1f Gbps\n", "", stream_gbps);

  // Steady-state allocation pin: after the 5 ms warm-up (payload pool, slot
  // table, train pool, dirty sets all at their high-water marks) the stream
  // workload's measured window must allocate NOTHING. Inline SGE lists,
  // pooled payloads/closures, try_emplace dirty tracking, and the GrowRing
  // pump rotation each exist to hold this; a regression in any of them
  // shows up here as a hard failure, like the SLI pin below.
  const bool stream_alloc_pin_ok = stream.allocs == 0;
  if (!stream_alloc_pin_ok) {
    std::printf("%12s !! STREAM ALLOC PIN FAILED: %llu allocs in steady state\n", "",
                static_cast<unsigned long long>(stream.allocs));
  }

  // drain8 is the perf-smoke reference number and must be a recorder-off
  // measurement, or the advisory band below compares unlike with like.
  if (migr::obs::FlightRecorder::global().enabled()) {
    std::printf("  !! flight recorder was enabled — disabling for drain8\n");
    migr::obs::FlightRecorder::global().set_enabled(false);
  }
  bool drain_ok = false;
  const Measurement drain = run_drain8(&drain_ok);
  print_measurement("drain8", drain);
  if (!drain_ok) std::printf("  !! drain8 reported failure\n");

  // SLI cost pin: the same drain with the brownout taps wired but the hub
  // disarmed. The disabled pipeline must be invisible — identical event
  // count (same seed, taps never touch the loop) and zero extra heap
  // allocations. The first drain8 warms process-global state (metric-name
  // interning in the registry), so the pin compares against a second plain
  // run: both legs see a warm process and the delta isolates the taps.
  // This one is a hard failure, not advisory: it is the "observability
  // off = free" contract from DESIGN.md §12.
  bool warm_ok = false;
  const Measurement drain_warm = run_drain8(&warm_ok);
  bool drain_sli_ok = false;
  const Measurement drain_sli = run_drain8(&drain_sli_ok, /*sli_taps=*/true);
  print_measurement("drain8_sli0", drain_sli);
  const long long sli_extra_allocs =
      static_cast<long long>(drain_sli.allocs) - static_cast<long long>(drain_warm.allocs);
  const long long sli_extra_events =
      static_cast<long long>(drain_sli.events) - static_cast<long long>(drain_warm.events);
  const bool sli_pin_ok =
      warm_ok && drain_sli_ok && sli_extra_allocs == 0 && sli_extra_events == 0;
  std::printf("%12s disarmed SLI taps vs drain8: %+lld allocs, %+lld events%s\n", "",
              sli_extra_allocs, sli_extra_events,
              sli_pin_ok ? "" : "  !! SLI COST PIN FAILED");

  // Advisory band vs the committed baseline on drain8's wall time per
  // simulated second — the simulator cost, not events/s: removing wasted
  // events (parked pollers) lowers events/s while the run gets faster.
  // Wall time is noisy on shared machines, so this only warns.
  const double base = baseline_drain8_wall_ns_per_sim_sec("BENCH_simrate.json");
  if (base > 0) {
    const double ratio = drain.wall_ns_per_sim_sec() / base;
    std::printf("%12s drain8 vs baseline: %.2fx wall per sim second (%.0f vs %.0f ns)\n", "",
                ratio, drain.wall_ns_per_sim_sec(), base);
    if (ratio < 0.4 || ratio > 2.5) {
      std::printf(
          "  !! ADVISORY: drain8 wall per sim second outside the [0.4x, 2.5x] baseline band — "
          "re-baseline from a quiet machine if the simulator changed\n");
    }
  }

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"simrate\",\n  \"workloads\": {\n");
  json_measurement(f, "event_core", core, false);
  json_measurement(f, "stream", stream, false);
  json_measurement(f, "drain8", drain, false);
  json_measurement(f, "drain8_sli0", drain_sli, true);
  std::fprintf(f,
               "  },\n  \"stream_gbps\": %.2f,\n  \"drain8_ok\": %s,\n"
               "  \"sli_extra_allocs\": %lld,\n  \"sli_pin_ok\": %s,\n"
               "  \"stream_alloc_pin_ok\": %s\n}\n",
               stream_gbps, drain_ok ? "true" : "false", sli_extra_allocs,
               sli_pin_ok ? "true" : "false", stream_alloc_pin_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return drain_ok && sli_pin_ok && stream_alloc_pin_ok ? 0 : 1;
}
