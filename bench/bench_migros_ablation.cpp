// §6 ablation — MigrRDMA vs MigrOS stop-and-copy.
//
// MigrOS modifies the RNIC so live QP transport state can be extracted and
// injected. The paper argues (§6) that both systems move the same data in
// the wait/replay steps, but MigrOS pays extra firmware time per QP to
// extract state, move every QP to STOP, and inject state at the target —
// while MigrRDMA's metadata lives in host memory and rides the ordinary
// memory image.
//
// This harness measures MigrRDMA's stop-and-copy (service blackout) and
// composes the MigrOS estimate on top of the same measured memory costs:
//   migros_blackout = DumpOthers + Transfer + FullRestore
//                     + #QP * (extract + stop + inject)
// with each firmware step modelled at a fixed 120 us per QP, per §6's
// analysis. The MigrOS column is therefore calibrated, not simulated: the
// simulated RNIC is commodity hardware and exposes no QP transport state.
// The crossover the paper predicts — MigrOS slower, increasingly so with
// #QPs — follows from that model.
#include "bench_util.hpp"

namespace migr::bench {
namespace {

// Modelled MigrOS firmware time per QP for each of extract, STOP and inject.
constexpr sim::DurationNs kMigrosPerQpCost = sim::usec(120);

void run_case(std::uint32_t qps) {
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
    if (!PerftestPeer::connect_pair(sender, i, receiver, i).is_ok()) std::exit(1);
  }
  sender.start();
  receiver.start();
  cluster.run_for(sim::msec(2));
  auto rep = cluster.migrate(100, 2, &sender);
  if (!rep.ok) std::exit(1);

  const double migrrdma_ms = sim::to_msec(rep.service_blackout());
  // MigrOS moves the same memory but adds per-QP firmware work on both
  // NICs: extract + STOP on the source, inject on the destination.
  const double per_qp_ms = sim::to_msec(kMigrosPerQpCost);
  const double migros_ms = sim::to_msec(rep.dump_others + rep.transfer + rep.full_restore) +
                           static_cast<double>(qps) * per_qp_ms * 3.0;
  std::printf("%16u%16.2f%16.2f%15.2fx\n", qps, migrrdma_ms, migros_ms,
              migros_ms / migrrdma_ms);
}

}  // namespace
}  // namespace migr::bench

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  migr::bench::print_header(
      "§6 ablation: stop-and-copy service blackout, MigrRDMA (measured, "
      "with pre-setup) vs MigrOS (modelled: same memory costs + per-QP "
      "firmware extract/STOP/inject)");
  migr::bench::print_row_header({"#QP", "MigrRDMA (ms)", "MigrOS (ms)", "ratio"});
  for (std::uint32_t qps : {16u, 64u, 256u, 1024u}) migr::bench::run_case(qps);
  return 0;
}
