// Figure 5 — Performance implication during live migration.
//
// Replicates §5.5.2: a container running perftest transmits 2 MiB messages
// with one-sided WRITEs through 16 QPs; the partner side samples its NIC's
// byte counters every 5 ms (the mlx5 ethtool-counter method). The container
// is migrated mid-run; the time series shows
//   * the brownout dips during partial restore (control-path pressure on
//     the NIC from pre-establishing connections — the contention Kong et
//     al. reported),
//   * a blackout gap of ~150 ms around stop-and-copy,
//   * full line rate restored afterwards.
// Both the migrate-the-sender and migrate-the-receiver cases run.
#include "bench_util.hpp"

namespace migr::bench {
namespace {

void run_case(bool migrate_sender) {
  Cluster cluster(3);
  PerftestConfig cfg;
  cfg.num_qps = 16;
  cfg.msg_size = 2 * 1024 * 1024;
  cfg.queue_depth = 4;  // 2 MiB messages: a shallow queue already saturates
  PerftestPeer sender(cluster.runtime(1), cluster.world().add_process("tx"), 100,
                      PerftestPeer::Role::sender, cfg);
  PerftestPeer receiver(cluster.runtime(3), cluster.world().add_process("rx"), 200,
                        PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < cfg.num_qps; ++i) {
    auto st = PerftestPeer::connect_pair(sender, i, receiver, i);
    if (!st.is_ok()) std::exit(1);
  }
  // The "partner" is whichever side is NOT migrated; sample its port.
  apps::ThroughputSampler sampler(cluster.loop(), cluster.device(migrate_sender ? 3 : 1),
                                  sim::msec(5));
  sender.start();
  receiver.start();
  sampler.start();

  cluster.run_for(sim::msec(300));  // steady state
  auto report =
      cluster.migrate(migrate_sender ? 100 : 200, 2, migrate_sender
                                                         ? static_cast<migrlib::MigratableApp*>(&sender)
                                                         : &receiver);
  if (!report.ok) {
    std::fprintf(stderr, "migration failed: %s\n", report.error.c_str());
    std::exit(1);
  }
  cluster.run_for(sim::msec(400));
  sampler.stop();
  check_stream(sender, receiver);

  print_header(std::string("Fig 5(") + (migrate_sender ? "a" : "b") + "): migrating the " +
               (migrate_sender ? "sender" : "receiver") +
               " — partner-side throughput (16 QPs, 2 MiB WRITEs)");
  std::printf("migration: suspend@%.1fms freeze@%.1fms resume@%.1fms  "
              "(comm blackout %.1f ms, service blackout %.1f ms, WBS %.1f ms)\n",
              sim::to_msec(report.suspend_at), sim::to_msec(report.freeze_at),
              sim::to_msec(report.resume_at), sim::to_msec(report.comm_blackout()),
              sim::to_msec(report.service_blackout()), sim::to_msec(report.wbs_elapsed));
  std::printf("%12s %12s   (one bar = 5 Gbps)\n", "t (ms)", "Gbps");
  const char* dir = migrate_sender ? "rx" : "tx";
  for (const auto& s : sampler.samples()) {
    const double gbps = migrate_sender ? s.rx_gbps : s.tx_gbps;
    // Print a coarse 20-ms-granularity series to keep the log readable.
    if ((s.at / sim::msec(5)) % 4 != 0) continue;
    std::printf("%12.1f %12.2f   %s|", sim::to_msec(s.at), gbps, dir);
    for (int b = 0; b < static_cast<int>(gbps / 5.0); ++b) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace
}  // namespace migr::bench

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  migr::bench::run_case(/*migrate_sender=*/true);
  migr::bench::run_case(/*migrate_sender=*/false);
  return 0;
}
