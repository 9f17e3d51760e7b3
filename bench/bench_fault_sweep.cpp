// Adversarial-network sweep: migration outcome vs. sustained data-plane
// loss (with and without reordering), plus the two failure-recovery
// scenarios — destination partition during the image transfer and the
// WBS-timeout abort policy. Companion to the §3.4 "buggy network"
// discussion: the paper's workflow must degrade to a forced stop-and-copy
// or a clean rollback, never to a wedged guest.
//
//   ./bench_fault_sweep
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "fault/fault.hpp"

namespace migr::bench {
namespace {

struct SweepRow {
  double loss = 0.0;
  bool reorder = false;
  MigrationReport report;
  std::uint64_t retransmits = 0;
  std::uint64_t reordered = 0;
  bool traffic_resumed = false;
};

constexpr std::uint32_t kQps = 4;

std::unique_ptr<PerftestPeer> make_peer(Cluster& c, net::HostId host, GuestId id,
                                        PerftestPeer::Role role) {
  PerftestConfig cfg;
  cfg.num_qps = kQps;
  cfg.msg_size = 8192;
  cfg.queue_depth = 16;
  cfg.opcode = rnic::WrOpcode::rdma_write;
  return std::make_unique<PerftestPeer>(c.runtime(host), c.world().add_process("app"), id,
                                        role, cfg);
}

SweepRow run_lossy_migration(double loss, bool reorder, MigrationOptions opts = {},
                             sim::DurationNs partition_dest_for = 0) {
  SweepRow row;
  row.loss = loss;
  row.reorder = reorder;

  Cluster cluster(3);
  auto tx = make_peer(cluster, 1, 1, PerftestPeer::Role::sender);
  auto rx = make_peer(cluster, 3, 2, PerftestPeer::Role::receiver);
  for (std::uint32_t i = 0; i < kQps; ++i) {
    if (!PerftestPeer::connect_pair(*tx, i, *rx, i).is_ok()) {
      row.report.error = "connect failed";
      return row;
    }
  }
  tx->start();
  rx->start();
  cluster.run_for(sim::msec(3));

  fault::ScenarioRunner runner(cluster.loop(), cluster.world().fabric());
  fault::FaultPlan plan;
  plan.baseline(loss, reorder ? 0.25 : 0.0, sim::usec(20));
  if (partition_dest_for > 0) plan.partition(/*at=*/0, partition_dest_for, /*host=*/2);
  runner.run(plan);

  const auto retrans_before = cluster.device(1).counters().retransmits;
  row.report = cluster.migrate(1, 2, tx.get(), opts);
  row.retransmits = cluster.device(1).counters().retransmits - retrans_before;
  row.reordered = cluster.world().fabric().stats(1).data_packets_reordered +
                  cluster.world().fabric().stats(2).data_packets_reordered +
                  cluster.world().fabric().stats(3).data_packets_reordered;

  // Post-migration settle window: longer than a retransmit timeout, so a
  // QP mid-recovery at high loss is not misreported as stalled.
  const auto msgs_before = tx->stats().completed_msgs;
  cluster.run_for(sim::msec(120));
  row.traffic_resumed = tx->stats().completed_msgs > msgs_before;
  return row;
}

const char* outcome(const MigrationReport& r) {
  if (r.ok) return r.wbs_timed_out ? "ok(forced-sc)" : "ok";
  return r.aborted ? "aborted" : "failed";
}

void print_row(const SweepRow& row) {
  std::printf("%16.3f%16s%16s%16.3f%16.3f%16llu%16llu%16s\n", row.loss * 100,
              row.reorder ? "yes" : "no", outcome(row.report),
              row.report.ok ? row.report.service_blackout() / 1e6 : 0.0,
              row.report.wbs_elapsed / 1e6,
              static_cast<unsigned long long>(row.report.transfer_retries),
              static_cast<unsigned long long>(row.retransmits),
              row.traffic_resumed ? "yes" : "NO");
}

// True if every loss row completed with its service resumed, and both
// failure scenarios rolled back to a running source.
bool sweep() {
  bool ok = true;
  print_header(
      "Migration under adversarial networks: loss sweep\n"
      "(4 QPs, 8 KiB WRITEs; blackout/wbs in ms)");
  print_row_header({"loss_%", "reorder", "outcome", "blackout_ms", "wbs_ms",
                    "xfer_retries", "retransmits", "svc_resumed"});
  auto lossy_row = [&](double loss, bool reorder) {
    const SweepRow row = run_lossy_migration(loss, reorder);
    print_row(row);
    ok = ok && row.report.ok && row.traffic_resumed;
  };
  for (double loss : {0.0, 0.001, 0.01, 0.05}) {
    lossy_row(loss, /*reorder=*/false);
    if (loss > 0) lossy_row(loss, /*reorder=*/true);
  }

  print_header("Failure recovery: abort/rollback scenarios");
  print_row_header({"scenario", "outcome", "phase", "src_resume", "svc_resume"});

  // Destination partitioned across the whole transfer window: the bounded
  // retry budget must exhaust and the controller roll the source back.
  MigrationOptions part_opts;
  part_opts.transfer_timeout = sim::msec(20);
  part_opts.max_transfer_retries = 2;
  part_opts.transfer_retry_backoff = sim::msec(5);
  SweepRow part = run_lossy_migration(0.0, false, part_opts,
                                      /*partition_dest_for=*/sim::msec(400));
  std::printf("%16s%16s%18s%16s%16s\n", "dest-partition", outcome(part.report),
              part.report.abort_phase.c_str(), part.report.source_resumed ? "yes" : "NO",
              part.traffic_resumed ? "yes" : "NO");

  // WBS deadline impossible to meet, abort policy on: clean rollback
  // instead of a forced stop-and-copy.
  MigrationOptions wbs_opts;
  wbs_opts.wbs_timeout = sim::usec(1);
  wbs_opts.abort_on_wbs_timeout = true;
  SweepRow wbs = run_lossy_migration(0.0, false, wbs_opts);
  std::printf("%16s%16s%18s%16s%16s\n", "wbs-abort", outcome(wbs.report),
              wbs.report.abort_phase.c_str(), wbs.report.source_resumed ? "yes" : "NO",
              wbs.traffic_resumed ? "yes" : "NO");

  print_registry_section("migr.migrations_aborted");
  print_registry_section("fault.");
  for (const SweepRow* row : {&part, &wbs}) {
    ok = ok && row->report.aborted && row->report.source_resumed && row->traffic_resumed;
  }
  return ok;
}

}  // namespace
}  // namespace migr::bench

int main() {
  if (!migr::bench::sweep()) {
    std::fprintf(stderr, "a loss row failed or a failure scenario did not roll back\n");
    return 1;
  }
  return 0;
}
