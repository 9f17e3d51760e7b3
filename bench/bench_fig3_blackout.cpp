// Figure 3 — Breakdown of MigrRDMA's blackout time.
//
// Reproduces the four panels of the paper's Fig. 3: migrating the sender
// and the receiver of a perftest workload, with and without RDMA pre-setup,
// sweeping the number of QPs. For each configuration the harness prints the
// blackout components: DumpRDMA, DumpOthers, Transfer, RestoreRDMA and
// FullRestore (ms). With pre-setup, DumpRDMA/RestoreRDMA leave the blackout
// window (the RDMA restoration time spent during pre-copy is reported in
// the last column for reference).
//
// Expected shape (paper §5.2): RestoreRDMA grows roughly linearly in #QPs
// and approaches ~half the blackout at 4096 QPs without pre-setup;
// pre-setup removes it, cutting blackout by up to ~58%; DumpOthers grows
// superlinearly with #QPs (CRIU's handling of complicated memory
// structures) and is larger when migrating the sender.
#include "bench_util.hpp"

namespace migr::bench {
namespace {

struct Row {
  std::uint32_t qps;
  bool presetup;
  MigrationReport rep;
};

Row run_case(std::uint32_t qps, bool presetup, bool migrate_sender) {
  Cluster cluster(3);
  PerftestConfig cfg;
  cfg.num_qps = qps;
  cfg.msg_size = 4096;
  cfg.queue_depth = 16;
  PerftestPeer sender(cluster.runtime(1), cluster.world().add_process("tx"), 100,
                      PerftestPeer::Role::sender, cfg);
  PerftestPeer receiver(cluster.runtime(3), cluster.world().add_process("rx"), 200,
                        PerftestPeer::Role::receiver, cfg);
  for (std::uint32_t i = 0; i < qps; ++i) {
    auto st = PerftestPeer::connect_pair(sender, i, receiver, i);
    if (!st.is_ok()) {
      std::fprintf(stderr, "connect failed: %s\n", st.to_string().c_str());
      std::exit(1);
    }
  }
  sender.start();
  receiver.start();
  cluster.run_for(sim::msec(2));

  MigrationOptions opts;
  opts.pre_setup = presetup;
  const GuestId target = migrate_sender ? 100 : 200;
  auto* app = migrate_sender ? &sender : &receiver;
  Row row{qps, presetup, cluster.migrate(target, 2, app, opts)};
  if (!row.rep.ok) {
    std::fprintf(stderr, "migration failed: %s\n", row.rep.error.c_str());
    std::exit(1);
  }
  // The controller publishes the same breakdown to the shared registry;
  // read it back from there so a drift between the two would show up here.
  auto snap = obs::Registry::global().snapshot();
  if (snapshot_value(snap, "migr.report.restore_rdma_ns") !=
          static_cast<double>(row.rep.restore_rdma) ||
      snapshot_value(snap, "migr.report.dump_rdma_ns") !=
          static_cast<double>(row.rep.dump_rdma)) {
    std::fprintf(stderr, "registry breakdown disagrees with MigrationReport!\n");
    std::exit(1);
  }
  // The stream must carry on intact after resume (§5.3).
  const std::uint64_t completed = sender.stats().completed_msgs;
  cluster.run_for(sim::msec(5));
  check_stream(sender, receiver);
  if (sender.stats().completed_msgs == completed) {
    std::fprintf(stderr, "sender completed no message in the 5 ms after resume\n");
    std::exit(1);
  }
  return row;
}

void run_panel(const char* name, bool migrate_sender) {
  for (bool presetup : {false, true}) {
    print_header(std::string("Fig 3 (") + name + ") — " +
                 (presetup ? "with RDMA pre-setup" : "w/o RDMA pre-setup") +
                 "  [all times in ms]");
    print_row_header({"#QP", "DumpRDMA", "DumpOthers", "Transfer", "RestoreRDMA",
                      "FullRestore", "Blackout", "(PreSetupRDMA)"});
    for (std::uint32_t qps : {16u, 64u, 256u, 1024u, 4096u}) {
      Row row = run_case(qps, presetup, migrate_sender);
      const auto& r = row.rep;
      std::printf("%16u%16.2f%16.2f%16.2f%16.2f%16.2f%16.2f%16.2f\n", qps,
                  sim::to_msec(r.dump_rdma), sim::to_msec(r.dump_others),
                  sim::to_msec(r.transfer), sim::to_msec(r.restore_rdma),
                  sim::to_msec(r.full_restore), sim::to_msec(r.service_blackout()),
                  sim::to_msec(r.presetup_restore_rdma));
    }
  }
}

}  // namespace
}  // namespace migr::bench

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  migr::bench::print_header(
      "Figure 3: Breakdown of MigrRDMA's blackout time (simulated testbed: "
      "100 Gbps fabric, perftest WRITE workload)");
  migr::bench::run_panel("migrating the sender", /*migrate_sender=*/true);
  migr::bench::run_panel("migrating the receiver", /*migrate_sender=*/false);
  // Cross-layer summary accumulated over every migration of the sweep.
  migr::bench::print_registry_section("migr.");
  return 0;
}
