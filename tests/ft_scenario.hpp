// The continuous-FT test scenario shared by ft_test and determinism_test:
// three hosts — primary (1), standby (2), partner (3) — and one protected
// guest streaming sequence numbers to a partner on the third host.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/msg_node.hpp"
#include "ft/ft.hpp"
#include "rnic/world.hpp"

namespace migr::testing_ft {

using migrlib::GuestId;

constexpr GuestId kPrimaryGuest = 10;
constexpr GuestId kPartnerGuest = 20;

// A sequence-numbered traffic source whose counter lives in *guest memory*:
// it checkpoints with the epochs and rolls back on promotion, so after a
// failover the app regenerates exactly the sends the committed state never
// produced. Any uncommitted message that leaked to the wire before the kill
// therefore shows up at the receiver as a duplicate sequence number.
class SeqTraffic : public migrlib::MigratableApp {
 public:
  SeqTraffic(apps::MsgNode& node, GuestId peer, sim::DurationNs interval)
      : node_(&node), peer_(peer), interval_(interval) {}

  void start(proc::SimProcess& p) {
    proc_ = &p;
    seq_addr_ = p.mem().mmap(proc::kPageSize, "seq_counter").value();
    write_seq(0);
    spawn();
  }

  void on_migrated(proc::SimProcess& new_proc) override {
    node_->on_migrated(new_proc);
    proc_ = &new_proc;
    task_.cancel();
    spawn();
  }

 private:
  void spawn() {
    task_ = proc_->spawn_poller(interval_, [this] { tick(); });
  }

  void tick() {
    std::vector<std::uint8_t> raw(8);
    if (!proc_->mem().read(seq_addr_, raw).is_ok()) return;
    common::ByteReader r{raw};
    const std::uint64_t seq = r.u64().value();
    common::ByteWriter w;
    w.u64(seq);
    if (node_->send(peer_, w.data()).is_ok()) write_seq(seq + 1);
  }

  void write_seq(std::uint64_t v) {
    common::ByteWriter w;
    w.u64(v);
    ASSERT_TRUE(proc_->mem().write(seq_addr_, w.data()).is_ok());
  }

  apps::MsgNode* node_;
  GuestId peer_;
  sim::DurationNs interval_;
  proc::SimProcess* proc_ = nullptr;
  proc::VirtAddr seq_addr_ = 0;
  sim::EventHandle task_;
};

class FtScenario {
 public:
  static ft::FtOptions fast_options() {
    ft::FtOptions o;
    o.criu_costs.freeze = sim::usec(50);
    o.criu_costs.dump_base = sim::usec(300);
    o.criu_costs.final_restore_base = sim::msec(2);
    o.epoch_interval = sim::msec(1);
    o.heartbeat_interval = sim::msec(1);
    return o;
  }

  explicit FtScenario(std::uint64_t seed, ft::FtOptions options = fast_options())
      : world_({}, seed) {
    for (net::HostId h : {1, 2, 3}) {
      devices_[h - 1] = &world_.add_device(h);
      runtimes_[h - 1] = std::make_unique<migrlib::MigrRdmaRuntime>(
          directory_, *devices_[h - 1], world_.fabric());
    }
    primary_proc_ = &world_.add_process("primary");
    partner_proc_ = &world_.add_process("partner");
    backup_proc_ = &world_.add_process("backup");
    a_ = std::make_unique<apps::MsgNode>(*runtimes_[0], *primary_proc_, kPrimaryGuest);
    b_ = std::make_unique<apps::MsgNode>(*runtimes_[2], *partner_proc_, kPartnerGuest);
    EXPECT_TRUE(apps::MsgNode::connect(*a_, *b_).is_ok());
    a_->start();
    b_->start();
    b_->set_handler([this](GuestId, const common::Bytes& payload) {
      common::ByteReader r{payload};
      auto s = r.u64();
      if (s.is_ok()) {
        received_.push_back(s.value());
        received_at_.push_back(world_.loop().now());
      }
    });
    traffic_ = std::make_unique<SeqTraffic>(*a_, kPartnerGuest, sim::usec(200));
    traffic_->start(*primary_proc_);
    ctrl_ = std::make_unique<ft::FtController>(world_.loop(), world_.fabric(), directory_,
                                               options);
  }

  common::Status protect() {
    return ctrl_->protect(
        kPrimaryGuest, /*backup_host=*/2, *backup_proc_, traffic_.get(), a_.get(),
        [this](const common::Status& st) {
          ready_ = true;
          ready_status_ = st;
        },
        [this](const ft::FtReport& r) {
          done_ = true;
          report_ = r;
        });
  }

  void run_for(sim::DurationNs d) { world_.loop().run_until(world_.loop().now() + d); }

  /// Run until protection is live (full sync committed) or `deadline`.
  bool run_until_protected(sim::DurationNs deadline = sim::msec(100)) {
    const sim::TimeNs end = world_.loop().now() + deadline;
    while (!ready_ && world_.loop().now() < end) run_for(sim::usec(100));
    return ready_ && ready_status_.is_ok();
  }

  bool run_until_done(sim::DurationNs deadline = sim::msec(200)) {
    const sim::TimeNs end = world_.loop().now() + deadline;
    while (!done_ && world_.loop().now() < end) run_for(sim::usec(100));
    return done_;
  }

  rnic::World world_;
  migrlib::GuestDirectory directory_;
  rnic::Device* devices_[3] = {};
  std::unique_ptr<migrlib::MigrRdmaRuntime> runtimes_[3];
  proc::SimProcess* primary_proc_ = nullptr;
  proc::SimProcess* partner_proc_ = nullptr;
  proc::SimProcess* backup_proc_ = nullptr;
  std::unique_ptr<apps::MsgNode> a_;
  std::unique_ptr<apps::MsgNode> b_;
  std::unique_ptr<SeqTraffic> traffic_;
  std::unique_ptr<ft::FtController> ctrl_;
  std::vector<std::uint64_t> received_;
  std::vector<sim::TimeNs> received_at_;  // when the partner's handler saw each
  bool ready_ = false;
  common::Status ready_status_ = common::Status::ok();
  bool done_ = false;
  ft::FtReport report_;
};

inline void expect_strictly_increasing(const std::vector<std::uint64_t>& seqs) {
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    ASSERT_LT(seqs[i - 1], seqs[i])
        << "duplicate or reordered seq at index " << i << ": " << seqs[i - 1] << " then "
        << seqs[i] << " (uncommitted output leaked?)";
  }
}

}  // namespace migr::testing_ft
