// Shared scaffolding for the figure/table reproduction harnesses: a small
// cluster (hosts + runtimes + directory), perftest wiring, migration
// helpers, and table printing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/perftest.hpp"
#include "migr/migration.hpp"
#include "obs/metrics.hpp"
#include "rnic/world.hpp"

namespace migr::bench {

using apps::PerftestConfig;
using apps::PerftestPeer;
using migrlib::GuestDirectory;
using migrlib::GuestId;
using migrlib::MigrationController;
using migrlib::MigrationOptions;
using migrlib::MigrationReport;
using migrlib::MigrRdmaRuntime;

class Cluster {
 public:
  explicit Cluster(std::uint32_t hosts, net::FabricConfig fabric = {}, std::uint64_t seed = 42)
      : world_(fabric, seed) {
    for (net::HostId h = 1; h <= hosts; ++h) {
      devices_[h] = &world_.add_device(h);
      runtimes_[h] =
          std::make_unique<MigrRdmaRuntime>(directory_, *devices_[h], world_.fabric());
    }
  }

  rnic::World& world() { return world_; }
  sim::EventLoop& loop() { return world_.loop(); }
  GuestDirectory& directory() { return directory_; }
  rnic::Device& device(net::HostId h) { return *devices_.at(h); }
  MigrRdmaRuntime& runtime(net::HostId h) { return *runtimes_.at(h); }

  void run_for(sim::DurationNs d) { world_.loop().run_until(world_.loop().now() + d); }

  /// Synchronous migration driver: runs the loop until the workflow ends.
  MigrationReport migrate(GuestId id, net::HostId dest, migrlib::MigratableApp* app,
                          MigrationOptions opts = {}) {
    auto& dest_proc = world_.add_process("dest");
    MigrationController ctl(world_.loop(), world_.fabric(), directory_, opts);
    MigrationReport out;
    bool done = false;
    auto st = ctl.start(id, dest, dest_proc, app, [&](const MigrationReport& r) {
      out = r;
      done = true;
    });
    if (!st.is_ok()) {
      out.ok = false;
      out.error = st.to_string();
      return out;
    }
    const sim::TimeNs deadline = world_.loop().now() + sim::sec(120);
    while (!done && world_.loop().now() < deadline) run_for(sim::msec(1));
    return out;
  }

 private:
  rnic::World world_;
  GuestDirectory directory_;
  std::unordered_map<net::HostId, rnic::Device*> devices_;
  std::unordered_map<net::HostId, std::unique_ptr<MigrRdmaRuntime>> runtimes_;
};

/// Read one instrument (or source field) out of a registry snapshot by its
/// full rendered name, e.g. "rnic.retransmits{host=1}" or
/// "fabric.port{host=1}.data_bytes_tx". Returns 0 when absent.
inline double snapshot_value(const std::vector<obs::SnapshotEntry>& snap,
                             const std::string& name) {
  for (const auto& e : snap) {
    if (e.name == name) return e.value;
  }
  return 0;
}

/// Snapshot the global registry, print every entry under `prefix`, and
/// return the snapshot for programmatic use. Benches call this after a sweep
/// to report cross-layer counters without threading stats structs around.
inline std::vector<obs::SnapshotEntry> print_registry_section(const std::string& prefix) {
  auto snap = obs::Registry::global().snapshot();
  std::printf("\n-- registry: %s --\n", prefix.empty() ? "(all)" : prefix.c_str());
  for (const auto& e : snap) {
    if (!prefix.empty() && e.name.rfind(prefix, 0) != 0) continue;
    if (e.kind == obs::SnapshotEntry::Kind::histogram) {
      std::printf("  %-44s count=%llu p50=%lld p99=%lld max=%lld\n", e.name.c_str(),
                  static_cast<unsigned long long>(e.count), static_cast<long long>(e.p50),
                  static_cast<long long>(e.p99), static_cast<long long>(e.max));
    } else {
      std::printf("  %-44s %.0f\n", e.name.c_str(), e.value);
    }
  }
  return snap;
}

/// The §5.3 check on a perftest stream across a migration: exits 1 when
/// either peer reports a failed or out-of-order completion, or the receiver
/// a corrupted message. A WRITE receiver completes no messages, so on a
/// WRITE stream the sender's counters carry the check.
inline void check_stream(const PerftestPeer& sender, const PerftestPeer& receiver) {
  const auto& tx = sender.stats();
  const auto& rx = receiver.stats();
  if (tx.errors == 0 && tx.order_violations == 0 && rx.errors == 0 &&
      rx.order_violations == 0 && rx.content_corruptions == 0) {
    return;
  }
  std::fprintf(stderr,
               "correctness violation: sender errors=%llu order_violations=%llu; "
               "receiver errors=%llu order_violations=%llu content_corruptions=%llu\n",
               static_cast<unsigned long long>(tx.errors),
               static_cast<unsigned long long>(tx.order_violations),
               static_cast<unsigned long long>(rx.errors),
               static_cast<unsigned long long>(rx.order_violations),
               static_cast<unsigned long long>(rx.content_corruptions));
  std::exit(1);
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row_header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%16s", "----------");
  std::printf("\n");
}

}  // namespace migr::bench
