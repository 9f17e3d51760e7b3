// migrbench: the repository benchmark. One process runs one named workload
// through the simulator's public API only, times those calls from outside,
// checks the outputs, and prints every metric by name and unit.
//
//   migrbench --workload drain8|stream_rw|ft_lossy --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   drain8    8 hosts, 16 MsgNode guests (2 KiB SENDs every 20 us, 2 MiB
//             dirtied every 1 ms); host 1 drained at concurrency 4.
//   stream_rw 2 hosts, no migration: 2 QPs of 256 KiB RDMA WRITE beside 2
//             QPs of 256 KiB RDMA READ, closed loop, 4 WRs in flight per QP.
//   ft_lossy  8 hosts, 1% data-plane loss: a sequence-numbered stream under
//             continuous FT (1 ms epochs) plus 3 background pairs; the
//             primary is killed after a long protected stretch.
//
// Seeds. --seed N derives Workload::sub_seeds sub-seeds. Each sub-seed
// seeds the fabric/devices and the traffic phases of every guest pair, so
// simulated results are a deterministic function of N. Simulated metrics are
// taken over all sub-seeds of a run (scalars: median; latency populations:
// pooled), which keeps them steady from one N to the next. Repetitions then
// continue until S wall seconds have passed; every repetition of a sub-seed
// must reproduce its simulated results exactly, or the run fails. Wall
// metrics are taken over repetitions, each scaled to the reference host speed
// (refkernel.hpp): run_wall_s as their first quartile, setup_s as the median
// of at least kSetupSamples set-ups.
//
// Plain runs (--trace 0) report end-to-end metrics. Traced runs (--trace 1)
// alternate plain and traced repetitions: the traced ones arm the critical
// path and the SLI taps, record spans around every call into the simulator
// (written once to DIR at the end), and feed the per-layer metrics; the
// layer probes and Table 4 run last. The last stdout line is one JSON
// object: {"correct","attempted","failed","metrics"}.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "apps/perftest.hpp"
#include "cluster/drain.hpp"
#include "extract.hpp"
#include "ft/ft.hpp"
#include "obs/sli.hpp"
#include "probes.hpp"
#include "refkernel.hpp"
#include "spans.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: common.allocs_per_event and common.alloc_mib.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs++;
  g_alloc_bytes += n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n != 0 ? n : 1)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new[](std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace migrbench {
namespace {

using namespace migr;
using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;
using migrlib::GuestId;

constexpr sim::DurationNs kSlice = sim::msec(1);  // brownout / counter-read granularity
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kHardCapSeconds = 120;  // never start a repetition past this
constexpr std::size_t kSetupSamples = 25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms(sim::DurationNs d) { return static_cast<double>(d) / 1e6; }

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A seed-drawn offset in [0, span) ns: the phase of one traffic source.
sim::DurationNs phase(std::uint64_t& rng, sim::DurationNs span) {
  return static_cast<sim::DurationNs>(splitmix(rng) % static_cast<std::uint64_t>(span));
}

// ---------------------------------------------------------------------------
// Counters read from outside the simulation at window boundaries.
// ---------------------------------------------------------------------------

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t data_drops = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t ooo_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t nak_tx = 0;
  std::uint64_t cqes = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.events = events - o.events;
    d.data_packets = data_packets - o.data_packets;
    d.data_bytes = data_bytes - o.data_bytes;
    d.ctrl_msgs = ctrl_msgs - o.ctrl_msgs;
    d.ctrl_bytes = ctrl_bytes - o.ctrl_bytes;
    d.data_drops = data_drops - o.data_drops;
    d.rx_packets = rx_packets - o.rx_packets;
    d.ooo_drops = ooo_drops - o.ooo_drops;
    d.retransmits = retransmits - o.retransmits;
    d.nak_tx = nak_tx - o.nak_tx;
    d.cqes = cqes - o.cqes;
    return d;
  }
};

Counters read_counters(cluster::ClusterModel& model) {
  Counters c;
  c.events = model.loop().events_dispatched();
  for (const net::HostId h : model.hosts()) {
    const net::PortStats& p = model.fabric().stats(h);
    c.data_packets += p.data_packets_tx;
    c.data_bytes += p.data_bytes_tx;
    c.ctrl_msgs += p.ctrl_messages_tx;
    c.ctrl_bytes += p.ctrl_bytes_tx;
    c.data_drops += p.data_packets_dropped;
    const rnic::PortCounters& d = model.device(h).counters();
    c.rx_packets += d.rx_packets;
    c.ooo_drops += d.out_of_sequence;
    c.retransmits += d.retransmits;
  }
  // NAKs and CQEs are only exported through the registry. Registry counters
  // are process-wide and survive earlier repetitions, so callers use deltas.
  for (const auto& e : obs::Registry::global().snapshot()) {
    if (e.name.rfind("rnic.nak_tx{", 0) == 0) c.nak_tx += static_cast<std::uint64_t>(e.value);
    if (e.name.rfind("rnic.cqe_delivered{", 0) == 0) c.cqes += static_cast<std::uint64_t>(e.value);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Pump: drives the loop in fixed simulated slices and reads counters only
// between slices, so observing the run schedules no event.
// ---------------------------------------------------------------------------

class Pump {
 public:
  struct Slice {
    sim::TimeNs start = 0;
    sim::TimeNs end = 0;
    std::uint64_t delivered = 0;  // service deliveries inside the slice
    double wall_ns = 0;
  };

  Pump(sim::EventLoop& loop, std::function<std::uint64_t()> delivered, SpanLog* spans,
       int parent)
      : loop_(loop), delivered_(std::move(delivered)), spans_(spans), parent_(parent),
        last_delivered_(delivered_()) {}

  /// Run whole slices until simulated time `t`.
  void until(sim::TimeNs t) {
    while (loop_.now() < t) one(std::min(t, loop_.now() + kSlice));
  }
  /// Run slices until `done()` holds or `deadline`; true if done.
  bool until_done(const std::function<bool()>& done, sim::TimeNs deadline) {
    while (!done() && loop_.now() < deadline) one(std::min(deadline, loop_.now() + kSlice));
    return done();
  }

  const std::vector<Slice>& slices() const noexcept { return slices_; }
  std::size_t pending_peak() const noexcept { return pending_peak_; }
  /// Heap allocations made inside run_until, i.e. by the simulator itself
  /// and not by the benchmark's bookkeeping between slices.
  std::uint64_t allocs() const noexcept { return allocs_; }
  std::uint64_t alloc_bytes() const noexcept { return alloc_bytes_; }

  /// Mean deliveries per slice over slices [from, to).
  double mean_delivered(std::size_t from, std::size_t to) const {
    if (to <= from) return 0;
    double sum = 0;
    for (std::size_t i = from; i < to; ++i) sum += static_cast<double>(slices_[i].delivered);
    return sum / static_cast<double>(to - from);
  }
  std::vector<std::uint64_t> delivered_from(std::size_t from) const {
    std::vector<std::uint64_t> out;
    for (std::size_t i = from; i < slices_.size(); ++i) out.push_back(slices_[i].delivered);
    return out;
  }

 private:
  void one(sim::TimeNs end) {
    Slice s;
    s.start = loop_.now();
    s.end = end;
    const std::uint64_t ev0 = loop_.events_dispatched();
    const int span = open_span(spans_, "run_until", parent_);
    const std::uint64_t a0 = g_allocs;
    const std::uint64_t b0 = g_alloc_bytes;
    const auto t0 = Clock::now();
    loop_.run_until(end);
    s.wall_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    allocs_ += g_allocs - a0;
    alloc_bytes_ += g_alloc_bytes - b0;
    const std::uint64_t d = delivered_();
    s.delivered = d - last_delivered_;
    last_delivered_ = d;
    pending_peak_ = std::max(pending_peak_, loop_.pending_events());
    if (spans_ != nullptr) {
      spans_->close(span);
      spans_->arg(span, "sim_start_ns", static_cast<double>(s.start));
      spans_->arg(span, "sim_end_ns", static_cast<double>(s.end));
      spans_->arg(span, "events", static_cast<double>(loop_.events_dispatched() - ev0));
      spans_->arg(span, "delivered", static_cast<double>(s.delivered));
    }
    slices_.push_back(s);
  }

  sim::EventLoop& loop_;
  std::function<std::uint64_t()> delivered_;
  SpanLog* spans_;
  int parent_;
  std::uint64_t last_delivered_;
  std::size_t pending_peak_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t alloc_bytes_ = 0;
  std::vector<Slice> slices_;
};

/// Simulated intervals of one repetition, for sim.wall_share.*.
struct Phases {
  using Interval = std::pair<sim::TimeNs, sim::TimeNs>;
  std::vector<Interval> precopy, blackout, resume;
};

/// Share of the window's wall time spent in slices overlapping each phase.
/// A slice overlapping several phases counts once, with priority blackout >
/// resume > precopy; slices overlapping none are steady.
void wall_shares(const Pump& pump, const Phases& ph, Metrics& out) {
  auto overlaps = [](const std::vector<Phases::Interval>& v, const Pump::Slice& s) {
    for (const auto& [a, b] : v) {
      if (a < s.end && s.start < b) return true;
    }
    return false;
  };
  double steady = 0, precopy = 0, blackout = 0, resume = 0, total = 0;
  for (const auto& s : pump.slices()) {
    total += s.wall_ns;
    if (overlaps(ph.blackout, s)) {
      blackout += s.wall_ns;
    } else if (overlaps(ph.resume, s)) {
      resume += s.wall_ns;
    } else if (overlaps(ph.precopy, s)) {
      precopy += s.wall_ns;
    } else {
      steady += s.wall_ns;
    }
  }
  const double t = total > 0 ? total : 1;
  out["sim.wall_share.steady"] = steady / t;
  out["sim.wall_share.precopy"] = precopy / t;
  out["sim.wall_share.blackout"] = blackout / t;
  out["sim.wall_share.resume"] = resume / t;
}

// ---------------------------------------------------------------------------
// One repetition of a workload.
// ---------------------------------------------------------------------------

struct Rep {
  double setup_s = 0;     // raw wall seconds
  double run_wall_s = 0;  // raw wall seconds
  double host_scale = 1;  // kRefKernelS / reference-kernel time beside this repetition
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Metrics sim;    // simulated results: must repeat exactly per sub-seed
  Metrics layer;  // per-layer metrics of this repetition
  std::vector<double> blackout_ms;   // service blackouts (latency population)
  obs::Histogram commit_delay;       // output-commit hold times, ns

  void fail(std::string why, std::uint64_t n = 1) {
    failures.push_back(std::move(why));
    failed += n;
  }
};

/// Counter-derived per-layer metrics shared by every workload.
void counter_layers(const Counters& d, std::uint64_t payload_bytes, const Pump& pump, Rep& rep) {
  Metrics& l = rep.layer;
  l["sim.events"] = static_cast<double>(d.events);
  l["sim.pending_peak"] = static_cast<double>(pump.pending_peak());
  l["common.allocs_per_event"] =
      d.events != 0 ? static_cast<double>(pump.allocs()) / static_cast<double>(d.events) : 0.0;
  l["common.alloc_mib"] = static_cast<double>(pump.alloc_bytes()) / kMiB;
  l["net.data_packets"] = static_cast<double>(d.data_packets);
  l["net.data_mib"] = static_cast<double>(d.data_bytes) / kMiB;
  l["net.ctrl_msgs"] = static_cast<double>(d.ctrl_msgs);
  l["net.ctrl_mib"] = static_cast<double>(d.ctrl_bytes) / kMiB;
  l["net.data_drops"] = static_cast<double>(d.data_drops);
  l["net.payload_share"] = payload_share(payload_bytes, d.data_bytes).value;
  l["rnic.rx_packets"] = static_cast<double>(d.rx_packets);
  l["rnic.ooo_drops"] = static_cast<double>(d.ooo_drops);
  // Shares come with their bases as separate metrics: rnic.rx_packets for
  // rnic.inorder_share, net.data_mib for net.payload_share.
  l["rnic.inorder_share"] = inorder_share(d.rx_packets, d.ooo_drops).value;
  l["rnic.retransmits"] = static_cast<double>(d.retransmits);
  l["rnic.nak_tx"] = static_cast<double>(d.nak_tx);
  l["rnic.cqes"] = static_cast<double>(d.cqes);
  // Every counter except the allocator's is simulated state.
  for (const auto& [k, v] : l) {
    if (k.rfind("common.", 0) != 0) rep.sim[k] = v;
  }
}

/// The process-wide SLI hub, cleared and enabled for one traced repetition.
obs::SliHub& armed_sli_hub() {
  auto& hub = obs::SliHub::global();
  hub.clear();
  hub.set_enabled(true);
  return hub;
}

/// apps.msg_rtt_*: message-weighted percentiles of the per-window RTT
/// percentiles the SLI taps recorded; disarms the hub afterwards.
void sli_rtt(sim::TimeNs now, Metrics& l) {
  auto& hub = obs::SliHub::global();
  hub.flush(now);
  std::vector<std::pair<double, std::uint64_t>> p50, p99;
  for (const auto id : hub.guest_ids()) {
    const obs::GuestSli* g = hub.find(id);
    if (g == nullptr) continue;
    for (const auto& w : g->windows()) {
      if (w.msgs == 0) continue;
      p50.emplace_back(static_cast<double>(w.p50_ns) / 1e3, w.msgs);
      p99.emplace_back(static_cast<double>(w.p99_ns) / 1e3, w.msgs);
    }
  }
  auto weighted = [](std::vector<std::pair<double, std::uint64_t>> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    std::uint64_t total = 0;
    for (const auto& e : v) total += e.second;
    const double want = p / 100.0 * static_cast<double>(total);
    std::uint64_t acc = 0;
    for (const auto& e : v) {
      acc += e.second;
      if (static_cast<double>(acc) >= want) return e.first;
    }
    return v.back().first;
  };
  l["apps.msg_rtt_p50_us"] = weighted(p50, 50);
  l["apps.msg_rtt_p99_us"] = weighted(p99, 99);
  hub.clear();
  hub.set_enabled(false);
}

double median_ns_ms(std::vector<double> v) { return median(v) / 1e6; }

/// Critical-path edge totals (ms) per class, median over the given paths.
void critical_path_layers(const std::vector<const obs::CriticalPath*>& paths, Metrics& l) {
  for (std::size_t c = 0; c < obs::kEdgeClassCount; ++c) {
    std::vector<double> v;
    for (const auto* cp : paths) v.push_back(static_cast<double>(cp->by_class[c]));
    l[std::string("migr.cp.") + obs::edge_class_name(static_cast<obs::EdgeClass>(c)) + "_ms"] =
        median_ns_ms(v);
  }
}

// ---- drain8 ----------------------------------------------------------------

Rep run_drain8(std::uint64_t seed, SpanLog* spans, bool setup_only) {
  Rep rep;
  const auto t_setup = Clock::now();
  const int setup_span = open_span(spans, "setup");
  cluster::ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = seed;
  const int ctor = open_span(spans, "ClusterModel", setup_span);
  cluster::ClusterModel model(cfg);
  close_span(spans, ctor);
  if (spans != nullptr) model.enable_sli(armed_sli_hub());
  cluster::TrafficProfile profile;
  profile.send_interval = sim::usec(20);
  profile.msg_bytes = 2048;
  profile.extra_mem_bytes = 2 << 20;
  profile.dirty_interval = sim::msec(1);
  std::vector<GuestId> guests;
  std::uint64_t rng = seed;
  for (GuestId g = 0; g < 8; ++g) {
    const SpanLog::Scope s(spans, "add_and_connect_pair", setup_span);
    const bool ok = model.add_guest(1, 100 + g, profile).is_ok() &&
                    model.add_guest(2 + g % 7, 200 + g, profile).is_ok();
    model.run_for(phase(rng, profile.send_interval));
    if (!ok || !model.connect_guests(100 + g, 200 + g).is_ok()) {
      rep.fail("drain8 set-up: cannot place or connect pair " + std::to_string(g));
      return rep;
    }
    guests.push_back(100 + g);
    guests.push_back(200 + g);
  }
  {
    const SpanLog::Scope s(spans, "warm_up", setup_span);
    model.run_for(sim::msec(5));
  }
  close_span(spans, setup_span);
  rep.setup_s = seconds_since(t_setup);
  if (setup_only) return rep;

  // ---- measured window: 10 ms steady, the drain, a 20 ms tail ----
  const auto t_run = Clock::now();
  const int win = open_span(spans, "window");
  auto delivered = [&] {
    std::uint64_t n = 0;
    for (const GuestId id : guests) n += model.guest(id)->received();
    return n;
  };
  const Counters c0 = read_counters(model);
  const std::uint64_t msgs0 = delivered();
  Pump pump(model.loop(), delivered, spans, win);
  const sim::TimeNs t0 = model.loop().now();
  pump.until(t0 + sim::msec(10));
  const double steady = pump.mean_delivered(0, pump.slices().size());

  cluster::SchedulerConfig scfg;
  scfg.limits.max_concurrent_fleet = 4;
  scfg.limits.max_concurrent_per_source = 4;
  scfg.limits.max_concurrent_per_dest = 4;
  scfg.migration.critical_path = spans != nullptr;
  cluster::MigrationScheduler sched(model, scfg);
  cluster::DrainWorkflow drain(model, sched);
  bool done = false;
  const std::size_t event_slice = pump.slices().size();
  {
    const SpanLog::Scope s(spans, "DrainWorkflow::start", win);
    if (!drain.start(1, [&](const cluster::DrainReport&) { done = true; }).is_ok()) {
      rep.fail("drain8: DrainWorkflow::start refused");
      return rep;
    }
  }
  pump.until_done([&] { return done; }, model.loop().now() + sim::sec(10));
  pump.until(model.loop().now() + sim::msec(20));
  close_span(spans, win);
  rep.run_wall_s = seconds_since(t_run);
  const sim::TimeNs t1 = model.loop().now();
  const Counters d = read_counters(model) - c0;

  // ---- correctness gates ----
  const cluster::DrainReport& r = drain.report();
  rep.attempted = 8;
  if (!done) {
    rep.fail("drain8: drain did not finish within 10 s simulated", 8);
  } else if (!r.ok || r.migrations != 8 || r.completed != r.migrations) {
    rep.fail("drain8: " + std::to_string(r.completed) + "/" + std::to_string(r.migrations) +
                 " migrations completed (" + r.error + ")",
             8 - std::min<std::uint64_t>(8, r.completed));
  }
  const std::size_t stuck = model.audit_stuck_qps(sim::msec(10));
  if (stuck != 0) {
    rep.fail("drain8: " + std::to_string(stuck) + " stuck QPs after the drain",
             rep.failed == 0 ? 1 : 0);
  }

  // ---- simulated results ----
  const std::uint64_t msgs = delivered() - msgs0;
  const std::uint64_t payload = msgs * profile.msg_bytes;
  rep.sim["goodput_gbps"] = static_cast<double>(payload) * 8.0 / static_cast<double>(t1 - t0);
  rep.sim["brownout_ms"] =
      ms(brownout_ns(pump.delivered_from(event_slice), kSlice, steady));
  rep.sim["makespan_ms"] = ms(r.makespan());
  rep.sim["msgs_delivered"] = static_cast<double>(msgs);
  Phases ph;
  std::vector<double> wbs, transfer, restore_rdma, full_restore, dump, queue_wait;
  std::vector<const obs::CriticalPath*> cps;
  double precopy_rounds = 0, precopy_bytes = 0, final_bytes = 0, xfer_att = 0, xfer_del = 0,
         xfer_retries = 0;
  for (const auto& o : r.outcomes) {
    const migrlib::MigrationReport& m = o.report;
    if (o.completed) {
      rep.blackout_ms.push_back(ms(m.service_blackout()));
      ph.precopy.emplace_back(m.start, m.freeze_at);
      ph.blackout.emplace_back(m.freeze_at, m.resume_at);
      ph.resume.emplace_back(m.resume_at, t1);
    }
    wbs.push_back(static_cast<double>(m.wbs_elapsed));
    transfer.push_back(static_cast<double>(m.transfer));
    restore_rdma.push_back(static_cast<double>(m.restore_rdma));
    full_restore.push_back(static_cast<double>(m.full_restore));
    dump.push_back(static_cast<double>(m.dump_rdma + m.dump_others));
    queue_wait.push_back(static_cast<double>(o.queue_wait()));
    if (m.critical_path.valid) cps.push_back(&m.critical_path);
    precopy_rounds += static_cast<double>(m.precopy_rounds);
    precopy_bytes += static_cast<double>(m.precopy_bytes);
    final_bytes += static_cast<double>(m.final_bytes);
    xfer_att += static_cast<double>(m.xfer_bytes_attempted);
    xfer_del += static_cast<double>(m.xfer_bytes_delivered);
    xfer_retries += static_cast<double>(m.transfer_retries);
  }
  for (std::size_t i = 0; i < rep.blackout_ms.size(); ++i) {
    rep.sim["blackout_ms." + std::to_string(i)] = rep.blackout_ms[i];
  }

  // ---- per-layer metrics ----
  counter_layers(d, payload, pump, rep);
  Metrics& l = rep.layer;
  wall_shares(pump, ph, l);
  double mapped = 0;
  for (const GuestId id : guests) {
    mapped += static_cast<double>(model.guest(id)->process().mem().mapped_bytes());
  }
  l["proc.mapped_mib"] = mapped / kMiB;
  l["criu.precopy_rounds"] = precopy_rounds;
  l["criu.precopy_mib"] = precopy_bytes / kMiB;
  l["criu.final_mib"] = final_bytes / kMiB;
  l["criu.dump_ms"] = median_ns_ms(dump);
  l["migr.wbs_ms"] = median_ns_ms(wbs);
  l["migr.transfer_ms"] = median_ns_ms(transfer);
  l["migr.restore_rdma_ms"] = median_ns_ms(restore_rdma);
  l["migr.full_restore_ms"] = median_ns_ms(full_restore);
  l["migr.xfer_delivered_share"] = share_of(xfer_del, xfer_att).value;
  l["migr.transfer_retries"] = xfer_retries;
  if (!cps.empty()) critical_path_layers(cps, l);
  l["cluster.queue_wait_p50_ms"] = median_ns_ms(queue_wait);
  l["cluster.retries"] = static_cast<double>(r.retries);
  l["cluster.aborts"] = static_cast<double>(r.aborts);
  l["apps.msgs_delivered"] = static_cast<double>(msgs);
  if (spans != nullptr) sli_rtt(t1, l);
  return rep;
}

// ---- stream_rw -------------------------------------------------------------

Rep run_stream_rw(std::uint64_t seed, SpanLog* spans, bool setup_only) {
  Rep rep;
  const auto t_setup = Clock::now();
  const int setup_span = open_span(spans, "setup");
  cluster::ClusterConfig cfg;
  cfg.hosts = 2;
  cfg.seed = seed;
  const int ctor = open_span(spans, "ClusterModel", setup_span);
  cluster::ClusterModel model(cfg);
  close_span(spans, ctor);
  apps::PerftestConfig wcfg;
  wcfg.num_qps = 2;
  wcfg.msg_size = 256 * 1024;
  wcfg.queue_depth = 4;
  wcfg.opcode = rnic::WrOpcode::rdma_write;
  apps::PerftestConfig rcfg = wcfg;
  rcfg.opcode = rnic::WrOpcode::rdma_read;
  auto& w = model.world();
  // WRITE pushes host 1 -> host 2; READ pulls host 2 -> host 1.
  apps::PerftestPeer w_tx(model.runtime(1), w.add_process("w_tx"), 100,
                          apps::PerftestPeer::Role::sender, wcfg);
  apps::PerftestPeer w_rx(model.runtime(2), w.add_process("w_rx"), 200,
                          apps::PerftestPeer::Role::receiver, wcfg);
  apps::PerftestPeer r_tx(model.runtime(1), w.add_process("r_tx"), 101,
                          apps::PerftestPeer::Role::sender, rcfg);
  apps::PerftestPeer r_rx(model.runtime(2), w.add_process("r_rx"), 201,
                          apps::PerftestPeer::Role::receiver, rcfg);
  apps::PerftestPeer* peers[] = {&w_tx, &w_rx, &r_tx, &r_rx};
  if (spans != nullptr) {
    auto& hub = armed_sli_hub();
    for (auto* p : peers) p->enable_sli(hub);
  }
  {
    const SpanLog::Scope s(spans, "connect_pairs", setup_span);
    for (std::uint32_t i = 0; i < wcfg.num_qps; ++i) {
      if (!apps::PerftestPeer::connect_pair(w_tx, i, w_rx, i).is_ok() ||
          !apps::PerftestPeer::connect_pair(r_tx, i, r_rx, i).is_ok()) {
        rep.fail("stream_rw set-up: cannot connect QP pair");
        return rep;
      }
    }
  }
  std::uint64_t rng = seed;
  {
    const SpanLog::Scope s(spans, "warm_up", setup_span);
    w_rx.start();
    r_rx.start();
    w_tx.start();
    model.run_for(phase(rng, sim::usec(50)));
    r_tx.start();
    model.run_for(sim::msec(5));
  }
  close_span(spans, setup_span);
  rep.setup_s = seconds_since(t_setup);
  if (setup_only) return rep;

  // ---- measured window: 250 ms of streaming ----
  const auto t_run = Clock::now();
  const int win = open_span(spans, "window");
  auto completed = [&] { return w_tx.stats().completed_msgs + r_tx.stats().completed_msgs; };
  auto bytes = [&] { return w_tx.stats().completed_bytes + r_tx.stats().completed_bytes; };
  const Counters c0 = read_counters(model);
  const std::uint64_t msgs0 = completed();
  const std::uint64_t bytes0 = bytes();
  Pump pump(model.loop(), completed, spans, win);
  const sim::TimeNs t0 = model.loop().now();
  pump.until(t0 + sim::msec(250));
  close_span(spans, win);
  rep.run_wall_s = seconds_since(t_run);
  const sim::TimeNs t1 = model.loop().now();
  const Counters d = read_counters(model) - c0;

  // ---- correctness gates ----
  const std::uint64_t msgs = completed() - msgs0;
  rep.attempted = msgs;
  for (const auto* p : peers) {
    const auto& st = p->stats();
    const std::uint64_t bad = st.errors + st.order_violations + st.content_corruptions;
    if (bad != 0) {
      rep.fail("stream_rw: guest " + std::to_string(p->id()) + " saw " + std::to_string(bad) +
                   " errors/order violations/corruptions",
               bad);
    }
  }
  if (msgs == 0) rep.fail("stream_rw: no WR completed in the window");

  // ---- simulated results ----
  const std::uint64_t payload = bytes() - bytes0;
  rep.sim["goodput_gbps"] = static_cast<double>(payload) * 8.0 / static_cast<double>(t1 - t0);
  rep.sim["wrs_completed"] = static_cast<double>(msgs);

  counter_layers(d, payload, pump, rep);
  Metrics& l = rep.layer;
  wall_shares(pump, {}, l);
  double mapped = 0;
  for (auto* p : peers) mapped += static_cast<double>(p->guest().process().mem().mapped_bytes());
  l["proc.mapped_mib"] = mapped / kMiB;
  l["apps.msgs_delivered"] = static_cast<double>(msgs);
  if (spans != nullptr) sli_rtt(t1, l);
  for (auto* p : peers) p->stop();
  return rep;
}

// ---- ft_lossy --------------------------------------------------------------

/// Sequence-numbered traffic whose counter lives in guest memory, so it is
/// checkpointed with every epoch and rolls back on promotion: a message that
/// escaped before its epoch committed would reappear at the receiver as a
/// duplicate sequence number.
class SeqTraffic : public migrlib::MigratableApp {
 public:
  SeqTraffic(apps::MsgNode& node, GuestId peer, sim::DurationNs interval)
      : node_(node), peer_(peer), interval_(interval) {}

  bool start() {
    proc_ = &node_.process();
    auto addr = proc_->mem().mmap(proc::kPageSize, "seq_counter");
    if (!addr.is_ok()) return false;
    seq_addr_ = addr.value();
    write_seq(0);
    spawn();
    return true;
  }

  void on_migrated(proc::SimProcess& new_proc) override {
    node_.on_migrated(new_proc);
    proc_ = &new_proc;
    task_.cancel();
    spawn();
  }

 private:
  void spawn() { task_ = proc_->spawn_poller(interval_, [this] { tick(); }); }

  void tick() {
    std::uint64_t seq = 0;
    if (!proc_->mem().read(seq_addr_, {reinterpret_cast<std::uint8_t*>(&seq), 8}).is_ok()) {
      return;
    }
    common::Bytes payload(8);
    std::memcpy(payload.data(), &seq, 8);
    if (node_.send(peer_, payload).is_ok()) write_seq(seq + 1);
  }

  void write_seq(std::uint64_t v) {
    (void)proc_->mem().write(seq_addr_, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  }

  apps::MsgNode& node_;
  GuestId peer_;
  sim::DurationNs interval_;
  proc::SimProcess* proc_ = nullptr;
  proc::VirtAddr seq_addr_ = 0;
  sim::EventHandle task_;
};

Rep run_ft_lossy(std::uint64_t seed, SpanLog* spans, bool setup_only) {
  constexpr GuestId kProtected = 100;
  constexpr GuestId kPartner = 200;
  constexpr std::uint32_t kSeqBytes = 8;
  constexpr std::uint32_t kBgBytes = 64;
  Rep rep;
  const auto t_setup = Clock::now();
  const int setup_span = open_span(spans, "setup");
  cluster::ClusterConfig cfg;
  cfg.hosts = 8;
  cfg.seed = seed;
  const int ctor = open_span(spans, "ClusterModel", setup_span);
  cluster::ClusterModel model(cfg);
  close_span(spans, ctor);
  net::Faults faults;
  faults.data_loss_prob = 0.01;
  model.fabric().set_faults(faults);
  if (spans != nullptr) model.enable_sli(armed_sli_hub());
  std::uint64_t rng = seed;

  // The protected guest on host 1 streams to a partner on host 3; host 2 is
  // the standby. Three background pairs keep hosts 4..8 busy.
  apps::MsgNode* primary = nullptr;
  apps::MsgNode* partner = nullptr;
  std::vector<std::uint64_t> received;
  std::vector<GuestId> background;
  {
    const SpanLog::Scope s(spans, "add_and_connect_guests", setup_span);
    auto a = model.add_guest(1, kProtected, {});
    auto b = model.add_guest(3, kPartner, {});
    if (!a.is_ok() || !b.is_ok() || !model.connect_guests(kProtected, kPartner).is_ok()) {
      rep.fail("ft_lossy set-up: cannot place the protected pair");
      return rep;
    }
    primary = a.value();
    partner = b.value();
    partner->set_handler([&received](GuestId, const common::Bytes& payload) {
      std::uint64_t seq = 0;
      if (payload.size() == kSeqBytes) std::memcpy(&seq, payload.data(), kSeqBytes);
      received.push_back(seq);
    });
    cluster::TrafficProfile bg;
    bg.send_interval = sim::usec(150);
    bg.msg_bytes = kBgBytes;
    const net::HostId pairs[][2] = {{4, 5}, {6, 7}, {8, 4}};
    GuestId next = 300;
    for (const auto& p : pairs) {
      const GuestId l = next++, r = next++;
      if (!model.add_guest(p[0], l, bg).is_ok() || !model.add_guest(p[1], r, bg).is_ok()) {
        rep.fail("ft_lossy set-up: cannot place a background pair");
        return rep;
      }
      model.run_for(phase(rng, bg.send_interval));
      if (!model.connect_guests(l, r).is_ok()) {
        rep.fail("ft_lossy set-up: cannot connect a background pair");
        return rep;
      }
      background.push_back(l);
      background.push_back(r);
    }
  }
  SeqTraffic traffic(*primary, kPartner, sim::usec(200));
  model.run_for(phase(rng, sim::usec(200)));
  if (!traffic.start()) {
    rep.fail("ft_lossy set-up: cannot map the sequence counter");
    return rep;
  }
  auto& backup_proc = model.world().add_process("backup");
  {
    const SpanLog::Scope s(spans, "warm_up", setup_span);
    model.run_for(sim::msec(5));
  }
  close_span(spans, setup_span);
  rep.setup_s = seconds_since(t_setup);
  if (setup_only) return rep;

  // ---- measured window: protect, 2 s protected, kill, failover, 30 ms ----
  const auto t_run = Clock::now();
  const int win = open_span(spans, "window");
  auto bg_msgs = [&] {
    std::uint64_t n = 0;
    for (const GuestId id : background) n += model.guest(id)->received();
    return n;
  };
  const Counters c0 = read_counters(model);
  const std::uint64_t seq0 = received.size();
  const std::uint64_t bg0 = bg_msgs();
  Pump pump(model.loop(), [&received] { return received.size(); }, spans, win);
  const sim::TimeNs t0 = model.loop().now();

  ft::FtOptions fo;
  fo.criu_costs.freeze = sim::usec(50);
  fo.criu_costs.dump_base = sim::usec(300);
  fo.criu_costs.final_restore_base = sim::msec(2);
  fo.epoch_interval = sim::msec(1);
  fo.heartbeat_interval = sim::msec(1);
  fo.critical_path = spans != nullptr;
  ft::FtController ctrl(model.loop(), model.fabric(), model.directory(), fo);
  bool ready = false, ready_ok = false, done = false;
  {
    const SpanLog::Scope s(spans, "FtController::protect", win);
    const auto st = ctrl.protect(
        kProtected, 2, backup_proc, &traffic, primary,
        [&](const common::Status& rs) {
          ready = true;
          ready_ok = rs.is_ok();
        },
        [&](const ft::FtReport&) { done = true; });
    if (!st.is_ok()) {
      rep.fail("ft_lossy: protect refused: " + st.to_string());
      return rep;
    }
  }
  rep.attempted = 1;
  if (!pump.until_done([&] { return ready; }, model.loop().now() + sim::sec(2)) || !ready_ok) {
    rep.fail("ft_lossy: protection never became live");
    return rep;
  }
  pump.until(model.loop().now() + sim::sec(2));
  const std::size_t event_slice = pump.slices().size();
  const double steady = pump.mean_delivered(event_slice - 100, event_slice);
  {
    const SpanLog::Scope s(spans, "FtController::kill_primary", win);
    ctrl.kill_primary();
  }
  pump.until_done([&] { return done; }, model.loop().now() + sim::sec(2));
  pump.until(model.loop().now() + sim::msec(30));
  close_span(spans, win);
  rep.run_wall_s = seconds_since(t_run);
  const sim::TimeNs t1 = model.loop().now();
  const Counters d = read_counters(model) - c0;

  // ---- correctness gates ----
  const ft::FtReport& r = ctrl.report();
  if (!done || !r.ok || !r.failed_over) {
    rep.fail("ft_lossy: failover did not complete (" + r.error + ")");
  }
  std::uint64_t dups = 0;
  for (std::size_t i = 1; i < received.size(); ++i) {
    if (received[i] <= received[i - 1]) dups++;
  }
  rep.attempted += received.size() - seq0;
  if (dups != 0) {
    rep.fail("ft_lossy: " + std::to_string(dups) + " duplicate sequence numbers", dups);
  }
  if (received.size() == seq0) rep.fail("ft_lossy: the protected stream delivered nothing");

  // ---- simulated results ----
  const std::uint64_t seq_msgs = received.size() - seq0;
  const std::uint64_t payload = seq_msgs * kSeqBytes + (bg_msgs() - bg0) * kBgBytes;
  rep.sim["goodput_gbps"] = static_cast<double>(payload) * 8.0 / static_cast<double>(t1 - t0);
  rep.sim["brownout_ms"] = ms(brownout_ns(pump.delivered_from(event_slice), kSlice, steady));
  rep.sim["seq_delivered"] = static_cast<double>(seq_msgs);
  if (r.failed_over) rep.blackout_ms.push_back(ms(r.failover_blackout()));
  rep.sim["blackout_ms"] = ms(r.failover_blackout());
  rep.commit_delay.merge(primary->release_delay());
  rep.sim["commit_delay_count"] = static_cast<double>(primary->release_delay().count());
  rep.sim["commit_delay_p99_ns"] = static_cast<double>(primary->release_delay().percentile(99));

  counter_layers(d, payload, pump, rep);
  Metrics& l = rep.layer;
  Phases ph;
  ph.precopy.emplace_back(r.protect_start, r.protected_at);
  if (r.failed_over) {
    ph.blackout.emplace_back(r.killed_at, r.resume_at);
    ph.resume.emplace_back(r.resume_at, t1);
  }
  wall_shares(pump, ph, l);
  double mapped = 0;
  for (const GuestId id : model.all_guests()) {
    mapped += static_cast<double>(model.guest(id)->process().mem().mapped_bytes());
  }
  l["proc.mapped_mib"] = mapped / kMiB;
  std::vector<double> commit, freeze;
  for (const auto& e : r.epochs) {
    if (e.epoch == 0) continue;  // the full sync is not a steady-state epoch
    if (e.committed_at != 0) commit.push_back(static_cast<double>(e.commit_latency()));
    freeze.push_back(static_cast<double>(e.freeze_ns));
  }
  l["criu.dump_ms"] = median_ns_ms(freeze);
  l["migr.transfer_retries"] = static_cast<double>(r.transfer_retries);
  l["migr.xfer_delivered_share"] = share_of(static_cast<double>(r.xfer_bytes_delivered),
                                             static_cast<double>(r.xfer_bytes_attempted))
                                        .value;
  if (r.critical_path.valid) critical_path_layers({&r.critical_path}, l);
  l["ft.epochs"] = static_cast<double>(r.epochs_committed);
  l["ft.epoch_commit_p50_ms"] = percentile(commit, 50) / 1e6;
  l["ft.epoch_commit_p99_ms"] = percentile(commit, 99) / 1e6;
  l["ft.epoch_mib"] = static_cast<double>(r.epoch_bytes_total) / kMiB;
  l["ft.detect_ms"] = r.failed_over ? ms(r.detected_at - r.killed_at) : 0.0;
  for (const auto& s : r.waterfall) {
    if (s.name == "restore") l["ft.restore_ms"] = ms(s.dur);
  }
  l["ft.msgs_dropped"] = static_cast<double>(r.msgs_dropped);
  l["apps.msgs_delivered"] = static_cast<double>(seq_msgs + (bg_msgs() - bg0));
  if (spans != nullptr) sli_rtt(t1, l);
  return rep;
}

// ---------------------------------------------------------------------------
// Repetitions, determinism, aggregation, output.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  /// One repetition; with setup_only it returns right after set-up.
  Rep (*run)(std::uint64_t seed, SpanLog* spans, bool setup_only);
  int sub_seeds;
};

constexpr Workload kWorkloads[] = {
    {"drain8", run_drain8, 4},
    {"stream_rw", run_stream_rw, 3},
    {"ft_lossy", run_ft_lossy, 8},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload drain8|stream_rw|ft_lossy --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) o.workload = &w;
      }
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0)) usage(argv[0]);
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage(argv[0]);
      o.trace = v[0] == '1';
    } else if (arg == "--out") {
      o.out_dir = v;
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload == nullptr || !have_seed) usage(argv[0]);
  return o;
}

std::uint64_t sub_seed(std::uint64_t seed, int i) {
  std::uint64_t x = seed * 0x100000001b3ull + static_cast<std::uint64_t>(i);
  return splitmix(x) % 1'000'000'007ull;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Unit {
  const char* name;
  const char* unit;
};

// Every metric the binary reports, with its unit. BENCHMARK.json declares
// which of them the contract prints; run.py checks the two agree.
constexpr Unit kEndToEnd[] = {
    {"run_wall_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},       {"goodput_gbps", "Gbit/s"},
    {"brownout_ms", "sim_ms"},     {"blackout_p50_ms", "sim_ms"},
    {"blackout_max_ms", "sim_ms"}, {"blackout_count", "count"},
    {"makespan_ms", "sim_ms"},     {"commit_delay_p50_ms", "sim_ms"},
    {"commit_delay_p99_ms", "sim_ms"}, {"commit_delay_count", "count"},
    {"failed_share", "ratio"},
};

const char* layer_unit(const std::string& name) {
  static const std::map<std::string, const char*> kUnits = {
      {"sim.events", "count"}, {"sim.pending_peak", "count"}, {"sim.dispatch_ns", "ns"},
      {"common.allocs_per_event", "ratio"}, {"common.alloc_mib", "MiB"},
      {"net.data_packets", "count"}, {"net.data_mib", "MiB"}, {"net.ctrl_msgs", "count"},
      {"net.ctrl_mib", "MiB"}, {"net.data_drops", "count"}, {"net.payload_share", "ratio"},
      {"rnic.rx_packets", "count"}, {"rnic.ooo_drops", "count"},
      {"rnic.inorder_share", "ratio"}, {"rnic.retransmits", "count"},
      {"rnic.nak_tx", "count"}, {"rnic.cqes", "count"}, {"rnic.parse_ns", "ns"},
      {"proc.write_ns.byte", "ns"}, {"proc.write_ns.page", "ns"}, {"proc.mapped_mib", "MiB"},
      {"criu.precopy_rounds", "count"}, {"criu.precopy_mib", "MiB"},
      {"criu.final_mib", "MiB"}, {"criu.dump_ms", "sim_ms"}, {"criu.dump_ns_per_page", "ns"},
      {"migr.transfer_retries", "count"}, {"migr.xfer_delivered_share", "ratio"},
      {"ft.epochs", "count"}, {"ft.epoch_mib", "MiB"}, {"ft.msgs_dropped", "count"},
      {"cluster.retries", "count"}, {"cluster.aborts", "count"},
      {"apps.msgs_delivered", "count"}, {"apps.msg_rtt_p50_us", "sim_us"},
      {"apps.msg_rtt_p99_us", "sim_us"}, {"obs.trace_overhead", "ratio"},
      {"sim.wall_raw_s", "s"}, {"sim.host_scale", "ratio"},
  };
  if (auto it = kUnits.find(name); it != kUnits.end()) return it->second;
  if (name.rfind("sim.wall_share.", 0) == 0) return "ratio";
  if (name.rfind("migr.virt_overhead.", 0) == 0) return "%";
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) return "sim_ms";
  return "count";
}

/// Every per-layer name, so a workload that does not load a layer still
/// reports it (as 0).
std::vector<std::string> layer_names() {
  std::vector<std::string> v = {
      "sim.events", "sim.pending_peak", "sim.dispatch_ns", "sim.wall_share.steady",
      "sim.wall_share.precopy", "sim.wall_share.blackout", "sim.wall_share.resume",
      "common.allocs_per_event", "common.alloc_mib", "net.data_packets", "net.data_mib",
      "net.ctrl_msgs", "net.ctrl_mib", "net.data_drops", "net.payload_share",
      "rnic.rx_packets", "rnic.ooo_drops", "rnic.inorder_share", "rnic.retransmits",
      "rnic.nak_tx", "rnic.cqes", "rnic.parse_ns", "proc.write_ns.byte", "proc.write_ns.page",
      "proc.mapped_mib", "criu.precopy_rounds", "criu.precopy_mib", "criu.final_mib",
      "criu.dump_ms", "criu.dump_ns_per_page", "migr.wbs_ms", "migr.transfer_ms",
      "migr.restore_rdma_ms", "migr.full_restore_ms", "migr.xfer_delivered_share",
      "migr.transfer_retries"};
  for (std::size_t c = 0; c < obs::kEdgeClassCount; ++c) {
    v.push_back(std::string("migr.cp.") + obs::edge_class_name(static_cast<obs::EdgeClass>(c)) +
                "_ms");
  }
  for (const char* op : {"send", "recv", "write", "read", "poll"}) {
    const std::string k = std::string("migr.virt_overhead.") + op;
    v.push_back(k);
    v.push_back(k + ".q1");
    v.push_back(k + ".q3");
  }
  for (const char* k :
       {"ft.epochs", "ft.epoch_commit_p50_ms", "ft.epoch_commit_p99_ms", "ft.epoch_mib",
        "ft.detect_ms", "ft.restore_ms", "ft.msgs_dropped", "cluster.queue_wait_p50_ms",
        "cluster.retries", "cluster.aborts", "apps.msgs_delivered", "apps.msg_rtt_p50_us",
        "apps.msg_rtt_p99_us", "obs.trace_overhead"}) {
    v.push_back(k);
  }
  return v;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Compare a repetition's simulated results with the first run of the same
/// sub-seed; any difference is a determinism failure.
void check_repeat(const Rep& first, Rep& again, std::uint64_t seed) {
  if (first.sim == again.sim) return;
  for (const auto& [k, v] : first.sim) {
    auto it = again.sim.find(k);
    const double other = it == again.sim.end() ? NAN : it->second;
    if (other != v) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "nondeterministic: sub-seed %" PRIu64 " %s = %s then %s",
                    seed, k.c_str(), num(v).c_str(), num(other).c_str());
      again.fail(buf);
      return;
    }
  }
  again.fail("nondeterministic: sub-seed " + std::to_string(seed) + " reported extra results");
}

int run(const Options& opt) {
  const Workload& wl = *opt.workload;
  const auto t_start = Clock::now();
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < wl.sub_seeds; ++i) seeds.push_back(sub_seed(opt.seed, i));
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  SpanLog spans(std::string(wl.name) + "-seed" + std::to_string(opt.seed) + "-trace" +
                (opt.trace ? "1" : "0"));

  std::vector<Rep> plain, traced;
  std::map<std::uint64_t, std::size_t> first_of;  // sub-seed -> index in plain
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto account = [&](const Rep& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };
  // Plain mode: every sub-seed once, then one repeat of the first (the
  // determinism check), then more until the time is up. Traced mode pairs
  // each plain repetition with a traced one of the same sub-seed.
  RefKernel ref;
  auto measured = [&](std::uint64_t s, SpanLog* log, bool setup_only) {
    const double before = ref.time_s();
    Rep r = wl.run(s, log, setup_only);
    r.host_scale = kRefKernelS / ((before + ref.time_s()) / 2);
    return r;
  };
  const std::size_t min_plain = opt.trace ? 2 : seeds.size() + 1;
  for (std::size_t k = 0;; ++k) {
    const std::uint64_t s = seeds[k % seeds.size()];
    // Traced mode alternates which leg runs first, so process warm-up does
    // not bias obs.trace_overhead.
    const bool traced_first = opt.trace && k % 2 == 1;
    if (traced_first) traced.push_back(measured(s, &spans, false));
    Rep r = measured(s, nullptr, false);
    if (auto it = first_of.find(s); it != first_of.end()) {
      check_repeat(plain[it->second], r, s);
    } else {
      first_of[s] = plain.size();
    }
    account(r);
    plain.push_back(std::move(r));
    if (opt.trace && !traced_first) traced.push_back(measured(s, &spans, false));
    if (opt.trace) {
      // Tracing observes the simulation but must not change it.
      check_repeat(plain.back(), traced.back(), s);
      account(traced.back());
    }
    const double elapsed = seconds_since(t_start);
    const double per_rep = elapsed / static_cast<double>(k + 1);
    if (failed != 0) break;
    const bool out_of_time = elapsed >= opt.seconds || elapsed + per_rep > kHardCapSeconds;
    if (plain.size() >= min_plain && out_of_time) break;
  }

  // ---- aggregate: wall metrics over repetitions, simulated ones over sub-seeds ----
  std::vector<double> setup, wall, raw_wall, scale;
  for (const auto& r : plain) {
    setup.push_back(r.setup_s * r.host_scale);
    wall.push_back(r.run_wall_s * r.host_scale);
    raw_wall.push_back(r.run_wall_s);
    scale.push_back(r.host_scale);
  }
  // Set-up is short, so it gets extra set-up-only samples for a steady median.
  for (std::size_t k = 0; failed == 0 && setup.size() < kSetupSamples; ++k) {
    const Rep r = measured(seeds[k % seeds.size()], nullptr, true);
    setup.push_back(r.setup_s * r.host_scale);
  }
  std::vector<double> blackouts;
  obs::Histogram commit;
  std::map<std::string, std::vector<double>> sim_by_key;
  std::uint64_t plain_attempted = 0, plain_failed = 0;
  for (const auto& [s, idx] : first_of) {
    const Rep& r = plain[idx];
    blackouts.insert(blackouts.end(), r.blackout_ms.begin(), r.blackout_ms.end());
    commit.merge(r.commit_delay);
    for (const auto& [k, v] : r.sim) sim_by_key[k].push_back(v);
  }
  for (const auto& r : plain) {
    plain_attempted += r.attempted;
    plain_failed += r.failed;
  }
  Metrics e2e;
  // Contention left over after the host-speed scaling only ever adds time,
  // so the first quartile tracks the program's own cost more tightly than
  // the median does.
  e2e["run_wall_s"] = quartiles(wall).q1;
  e2e["setup_s"] = median(setup);
  e2e["peak_rss_mib"] = peak_rss_mib();
  e2e["goodput_gbps"] = median(sim_by_key["goodput_gbps"]);
  e2e["brownout_ms"] = median(sim_by_key["brownout_ms"]);
  e2e["makespan_ms"] = median(sim_by_key["makespan_ms"]);
  const Tail bt = tail_of(blackouts);
  e2e["blackout_p50_ms"] = bt.p50;
  e2e["blackout_max_ms"] = percentile(blackouts, 100);
  e2e["blackout_count"] = static_cast<double>(bt.count);
  e2e["commit_delay_p50_ms"] = static_cast<double>(commit.percentile(50)) / 1e6;
  const bool p99_ok = p99_supported(commit.count());
  e2e["commit_delay_p99_ms"] =
      static_cast<double>(p99_ok ? commit.percentile(99) : commit.max()) / 1e6;
  e2e["commit_delay_count"] = static_cast<double>(commit.count());
  e2e["failed_share"] = share_of(static_cast<double>(plain_failed),
                                 static_cast<double>(plain_attempted)).value;

  Metrics layers;
  if (opt.trace) {
    // A metric the plain repetitions also measure comes from them, so the
    // tracing's own cost (allocations, span bookkeeping) stays out of it;
    // the traced ones add what only tracing measures (critical path, SLI).
    std::map<std::string, std::vector<double>> plain_by, traced_by;
    std::vector<double> traced_wall;
    for (const auto& r : plain) {
      for (const auto& [k, v] : r.layer) plain_by[k].push_back(v);
    }
    for (const auto& t : traced) {
      traced_wall.push_back(t.run_wall_s * t.host_scale);
      for (const auto& [k, v] : t.layer) traced_by[k].push_back(v);
    }
    for (const auto& k : layer_names()) {
      layers[k] = median(plain_by.contains(k) ? plain_by[k] : traced_by[k]);
    }
    layers["obs.trace_overhead"] = quartiles(traced_wall).q1 / quartiles(wall).q1;
    layers["sim.wall_raw_s"] = quartiles(raw_wall).q1;
    layers["sim.host_scale"] = median(scale);
    if (failed == 0) run_probes(layers, spans);
  }

  const bool correct = failed == 0;
  // ---- human-readable report ----
  std::printf("migrbench %s seed %" PRIu64 " trace %d: %zu plain repetitions over %zu "
              "sub-seeds%s\n",
              wl.name, opt.seed, opt.trace ? 1 : 0, plain.size(), first_of.size(),
              opt.trace ? (", " + std::to_string(traced.size()) + " traced").c_str() : "");
  for (const auto& f : failures) std::printf("FAIL %s\n", f.c_str());
  std::printf("  raw wall s per repetition:");
  for (const double w : raw_wall) std::printf(" %.3f", w);
  std::printf("\n  host scale per repetition:");
  for (const double x : scale) std::printf(" %.3f", x);
  std::printf("\n");
  for (const auto& u : kEndToEnd) {
    std::printf("  %-24s %16.6f %s\n", u.name, e2e[u.name], u.unit);
  }
  for (const auto& [k, v] : layers) {
    std::printf("  %-32s %16.6f %s\n", k.c_str(), v, layer_unit(k));
  }

  // ---- result file and spans, written once ----
  const std::string stem = opt.out_dir + "/" + wl.name + "-seed" + std::to_string(opt.seed) +
                           "-trace" + (opt.trace ? "1" : "0");
  if (opt.trace && !spans.write(stem + "-spans.json")) {
    std::fprintf(stderr, "cannot write %s-spans.json\n", stem.c_str());
  }
  std::string metrics;
  auto add = [&metrics](const std::string& k, double v, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + k + "\": {\"value\": " + num(v) +
                                                ", \"unit\": \"" + unit + "\"}");
  };
  // Traced results carry the end-to-end numbers too, so per-layer consumers
  // see the service metrics each layer should move.
  for (const auto& [k, v] : layers) add(k, v, layer_unit(k));
  for (const auto& u : kEndToEnd) add(u.name, e2e[u.name], u.unit);
  const std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(attempted) +
                           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
                           metrics + "}}";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace migrbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return migrbench::run(migrbench::parse(argc, argv));
}
