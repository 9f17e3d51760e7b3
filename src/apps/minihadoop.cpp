#include "apps/minihadoop.hpp"

#include "common/log.hpp"

namespace migr::apps {

using common::ByteReader;
using common::Bytes;
using common::ByteWriter;

namespace {

Bytes msg1(HadoopMsg type) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  return std::move(w).take();
}

Bytes msg_task(HadoopMsg type, std::uint32_t task, std::uint32_t arg = 0) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(task);
  w.u32(arg);
  return std::move(w).take();
}

}  // namespace

// ---------------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------------

HadoopMaster::HadoopMaster(MsgNode& node, HadoopConfig config)
    : node_(node), config_(config) {
  node_.set_handler([this](GuestId from, const Bytes& p) { on_message(from, p); });
  tick_task_ = node_.process().spawn_poller(config_.master_sample, [this] { tick(); });
}

void HadoopMaster::add_worker(GuestId worker) {
  workers_.push_back(worker);
  last_heartbeat_[worker] = node_.process().loop().now();
}

void HadoopMaster::set_backup(GuestId backup) { backup_ = backup; }

void HadoopMaster::start_job() {
  // Split the tasks across the workers up front (data locality).
  for (std::uint32_t t = 0; t < config_.tasks; ++t) {
    queues_[workers_[t % workers_.size()]].push_back(t);
  }
  job_started_ = true;
  job_start_ = node_.process().loop().now();
  for (GuestId w : workers_) assign_next(w);
}

void HadoopMaster::assign_next(GuestId worker) {
  auto q = queues_.find(worker);
  if (q == queues_.end() || q->second.empty() || running_.contains(worker) ||
      dead_.contains(worker)) {
    return;
  }
  const std::uint32_t task = q->second.front();
  if (node_.send(worker, msg_task(HadoopMsg::assign, task)).is_ok()) {
    q->second.pop_front();
    running_[worker] = task;
  }
  // On send-window pressure the next tick retries.
}

void HadoopMaster::on_message(GuestId from, const Bytes& payload) {
  ByteReader r{payload};
  auto type = r.u8();
  if (!type.is_ok()) return;
  last_heartbeat_[from] = node_.process().loop().now();
  switch (static_cast<HadoopMsg>(type.value())) {
    case HadoopMsg::heartbeat:
      break;
    case HadoopMsg::block_done:
      blocks_done_++;
      break;
    case HadoopMsg::task_done: {
      auto task = r.u32();
      if (!task.is_ok()) return;
      done_.insert(task.value());
      running_.erase(from);
      if (done_.size() >= config_.tasks && job_started_ && !job_done_) {
        job_done_ = true;
        job_end_ = node_.process().loop().now();
      } else {
        assign_next(from);
      }
      break;
    }
    default:
      break;
  }
}

void HadoopMaster::declare_dead(GuestId worker) {
  if (dead_.contains(worker)) return;
  dead_.insert(worker);
  failovers_++;
  MIGR_INFO() << "master: worker " << worker << " declared dead; failing over";
  // The in-progress task is lost and must be re-executed from the log.
  auto it = running_.find(worker);
  if (it != running_.end()) {
    queues_[worker].push_front(it->second);
    running_.erase(it);
  }
  if (backup_ != 0 && !backup_active_) {
    backup_active_ = true;
    const GuestId backup = backup_;
    const GuestId dead = worker;
    // Container start + log replay delay before the backup takes over the
    // dead worker's (pinned) tasks.
    node_.process().loop().schedule_in(config_.failover_recovery, [this, backup, dead] {
      workers_.push_back(backup);
      queues_[backup] = std::move(queues_[dead]);
      queues_.erase(dead);
      last_heartbeat_[backup] = node_.process().loop().now();
      assign_next(backup);
    });
  }
}

void HadoopMaster::tick() {
  const sim::TimeNs now = node_.process().loop().now();
  if (job_started_ && !job_done_) {
    // Heartbeat supervision.
    for (GuestId w : workers_) {
      if (dead_.contains(w)) continue;
      const auto gap = now - last_heartbeat_[w];
      if (gap > config_.heartbeat_miss * config_.heartbeat_period) declare_dead(w);
    }
    // Idle live workers pick up pending tasks.
    for (GuestId w : workers_) {
      if (!dead_.contains(w)) assign_next(w);
    }
  }
  // Application-perceived throughput sampling (Fig. 6a).
  if (config_.kind == JobKind::dfsio && job_started_) {
    const double bytes =
        static_cast<double>(blocks_done_ - blocks_at_last_sample_) * config_.block_size;
    const double mbps = bytes / (1024.0 * 1024.0) /
                        (static_cast<double>(config_.master_sample) / sim::kSecond);
    blocks_at_last_sample_ = blocks_done_;
    if (!job_done_) tput_.push_back(TputSample{now, mbps});
  }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

HadoopWorker::HadoopWorker(MsgNode& node, HadoopConfig config, GuestId master)
    : node_(node), config_(config), master_(master) {
  node_.set_handler([this](GuestId from, const Bytes& p) { on_message(from, p); });
  node_.set_raw_cqe_handler([this](const rnic::Cqe& cqe) {
    if (cqe.wr_id < (1ull << 48)) return;
    if (cqe.status == rnic::CqeStatus::success) {
      write_inflight_ = false;
      finish_block();
    } else {
      // Replication pipeline failure (replica died): HDFS-style degraded
      // mode — keep the block locally and carry on under-replicated.
      replica_ok_ = false;
      degraded_blocks_++;
      write_inflight_ = false;
      finish_block();
    }
  });
  // Block staging buffer (source of replication WRITEs) and landing buffer
  // (targets of the peer's replication WRITEs).
  block_buf_ = node_.process().mem().mmap(config_.block_size, "hdfs_block").value();
  block_mr_ = node_.guest()
                  .reg_mr(node_.pd(), block_buf_, config_.block_size, rnic::kAccessLocalWrite)
                  .value();
  landing_addr_ = node_.process().mem().mmap(config_.block_size, "hdfs_landing").value();
  landing_mr_ = node_.guest()
                    .reg_mr(node_.pd(), landing_addr_, config_.block_size,
                            rnic::kAccessLocalWrite | rnic::kAccessRemoteWrite)
                    .value();
}

void HadoopWorker::set_replica(GuestId replica, std::uint64_t remote_addr,
                               std::uint32_t vrkey) {
  replica_ = replica;
  replica_addr_ = remote_addr;
  replica_vrkey_ = vrkey;
}

void HadoopWorker::spawn_tasks(proc::SimProcess& proc) {
  tick_task_ = proc.spawn_poller(config_.worker_tick, [this] { tick(); });
  hb_task_ = proc.spawn_poller(config_.heartbeat_period, [this] {
    (void)node_.send(master_, msg1(HadoopMsg::heartbeat));
  });
}

void HadoopWorker::start() {
  if (running_) return;
  running_ = true;
  spawn_tasks(node_.process());
}

void HadoopWorker::stop() {
  running_ = false;
  tick_task_.cancel();
  hb_task_.cancel();
}

void HadoopWorker::on_migrated(proc::SimProcess& new_proc) {
  node_.on_migrated(new_proc);
  if (running_) {
    tick_task_.cancel();
    hb_task_.cancel();
    spawn_tasks(new_proc);
  }
}

void HadoopWorker::on_message(GuestId from, const Bytes& payload) {
  (void)from;
  ByteReader r{payload};
  auto type = r.u8();
  if (!type.is_ok()) return;
  if (static_cast<HadoopMsg>(type.value()) == HadoopMsg::assign) {
    auto task = r.u32();
    if (!task.is_ok()) return;
    if (has_task_) {
      backlog_.push_back(task.value());
      return;
    }
    has_task_ = true;
    task_ = task.value();
    blocks_done_in_task_ = 0;
    compute_progress_ = 0;
  }
}

void HadoopWorker::tick() {
  if (!has_task_ || write_inflight_) return;
  compute_progress_ += config_.worker_tick;
  const sim::DurationNs need = config_.kind == JobKind::dfsio
                                   ? config_.compute_per_block
                                   : config_.pi_task_compute;
  if (compute_progress_ < need) return;
  compute_progress_ = 0;

  if (config_.kind == JobKind::estimate_pi) {
    // PI tasks are compute-only; report completion.
    if (node_.send(master_, msg_task(HadoopMsg::task_done, task_)).is_ok()) {
      tasks_completed_++;
      has_task_ = false;
      if (!backlog_.empty()) {
        has_task_ = true;
        task_ = backlog_.front();
        backlog_.pop_front();
      }
    } else {
      compute_progress_ = need;  // retry the send next tick
    }
    return;
  }

  // DFSIO: replicate the freshly "computed" block to the peer worker.
  if (replica_ == 0 || !replica_ok_) {
    if (!replica_ok_) degraded_blocks_++;
    finish_block();  // no (live) replica: local-only write
    return;
  }
  auto qp = node_.qp_to(replica_);
  if (!qp.is_ok()) {
    finish_block();
    return;
  }
  rnic::SendWr wr;
  wr.wr_id = next_write_id_++;
  wr.opcode = rnic::WrOpcode::rdma_write;
  wr.remote_addr = replica_addr_;
  wr.rkey = replica_vrkey_;
  wr.sge = {{block_buf_, config_.block_size, block_mr_.vlkey}};
  const auto st = node_.guest().post_send(qp.value(), std::move(wr));
  if (st.is_ok()) {
    write_inflight_ = true;
  } else if (st.code() == common::Errc::failed_precondition) {
    // QP to the replica is dead; degrade.
    replica_ok_ = false;
    degraded_blocks_++;
    finish_block();
  } else {
    compute_progress_ = need;  // transient (window full): retry next tick
  }
}

void HadoopWorker::finish_block() {
  if (!has_task_) return;
  blocks_done_in_task_++;
  (void)node_.send(master_, msg_task(HadoopMsg::block_done, task_, blocks_done_in_task_));
  if (blocks_done_in_task_ >= config_.blocks_per_task) {
    if (node_.send(master_, msg_task(HadoopMsg::task_done, task_)).is_ok()) {
      tasks_completed_++;
      has_task_ = false;
      blocks_done_in_task_ = 0;
      if (!backlog_.empty()) {
        has_task_ = true;
        task_ = backlog_.front();
        backlog_.pop_front();
      }
    } else {
      blocks_done_in_task_--;  // retry completion next tick
      compute_progress_ = config_.compute_per_block;
    }
  }
}

}  // namespace migr::apps
