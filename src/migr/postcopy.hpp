// Post-copy page pump: the userfaultfd + page-server analogue for post-copy
// live migration. After the controller commits and resumes the guest on the
// destination with part of its memory still on the source, the pump
//
//  * serves *demand faults*: any access to a missing page triggers the
//    AddressSpace fault hook, which fills the page immediately (the access
//    must complete this event) and issues a simulated one-sided RDMA READ to
//    the source so the fetch pays honest wire time — the request→reply RTT
//    is what lands in the fault-latency histogram;
//  * runs a *background prefetch stream*: batched page requests walk the
//    missing set in address order so cold pages arrive before the guest
//    trips on them;
//  * declares the migration fully drained once no page is missing and every
//    in-flight fetch has been answered — only then may the controller kill
//    the source process (it is the pager until that moment).
//
// Both directions ride the ctrl plane (the paper's out-of-band channel):
// requests as plain ctrl messages, page data through the migration's
// TransferMux with its per-chunk retries. The source side charges the NIC
// ctrl-pressure cost of walking the pages, so post-copy's brownout shows up
// on the source too.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "net/fabric.hpp"
#include "obs/histogram.hpp"
#include "proc/process.hpp"
#include "rnic/device.hpp"
#include "sim/event_loop.hpp"

namespace migr::migrlib {

class TransferMux;

/// Source-side page walk per requested page, charged as ctrl pressure on
/// the source NIC.
inline constexpr sim::DurationNs kPostcopyPerPageRead = 250;

struct PostcopyConfig {
  std::uint32_t batch_pages = 32;  // pages per background prefetch request
};

/// Drain outcome + accounting, embedded in MigrationReport.
struct PostcopyStats {
  bool enabled = false;
  std::uint64_t missing_pages = 0;     // pages left behind at switch-over
  std::uint64_t demand_faults = 0;     // pages pulled by guest access
  std::uint64_t prefetched_pages = 0;  // pages pulled by the background stream
  std::uint64_t fetch_requests = 0;    // ctrl-plane request messages
  std::uint64_t fetch_bytes = 0;       // page payload bytes received
  std::uint64_t retries = 0;           // watchdog re-requests
  sim::DurationNs drain_ns = 0;        // resume -> last page present
  std::int64_t fault_p50_ns = 0;       // demand-fault request->reply RTT
  std::int64_t fault_p99_ns = 0;
  std::int64_t fault_max_ns = 0;
  /// JSON object: {"missing_pages":..,...,"fault_ns":{"p50":..,...}}.
  void write(common::Json& j) const;
};

class PostcopyPump {
 public:
  using DoneCb = std::function<void(const common::Status&)>;

  /// `mux` (borrowed from the migration controller) carries the src→dest
  /// page-data direction; requests stay on the plain ctrl plane (they are
  /// tiny). The pump re-points the mux's delivery callback to itself in
  /// arm() — by then the controller's transfers are done.
  PostcopyPump(sim::EventLoop& loop, net::Fabric& fabric, std::uint32_t guest,
               net::HostId src_host, net::HostId dest_host,
               proc::SimProcess& src_proc, proc::SimProcess& dest_proc,
               rnic::Device& src_dev, TransferMux& mux, PostcopyConfig cfg = {});
  ~PostcopyPump();
  PostcopyPump(const PostcopyPump&) = delete;
  PostcopyPump& operator=(const PostcopyPump&) = delete;

  /// Mark `missing` pages absent on the destination, install the demand-
  /// fault hook, register the request service and take over the mux. Call
  /// after the final restore finished (addresses are the application's
  /// originals) and *before* resume — partner NIC DMA can fault pages in
  /// the gap.
  void arm(std::vector<proc::VirtAddr> missing);

  /// Start the background prefetch stream; `done` fires (possibly
  /// synchronously, if everything already faulted in) once the destination
  /// owns every page.
  void start(DoneCb done);

  bool drained() const noexcept { return drained_; }
  PostcopyStats stats() const;

 private:
  static constexpr std::uint8_t kPrefetch = 1;
  static constexpr std::uint8_t kFault = 2;

  void on_fault(proc::VirtAddr page);
  void on_request(common::Bytes&& payload);  // runs on the source host
  void on_data(common::Bytes&& payload);     // runs on the destination host
  void send_request(std::uint8_t kind, const std::vector<proc::VirtAddr>& pages);
  void request_next_batch();
  void on_watchdog();
  void maybe_finish();
  void finish(const common::Status& st);
  /// Copy one page's contents source -> destination physical pages, without
  /// going through write() (no dirty marks, no re-faults).
  void copy_page(proc::VirtAddr page);

  sim::EventLoop& loop_;
  net::Fabric& fabric_;
  std::uint32_t guest_ = 0;
  net::HostId src_host_ = 0;
  net::HostId dest_host_ = 0;
  proc::SimProcess& src_proc_;
  proc::SimProcess& dest_proc_;
  rnic::Device& src_dev_;
  PostcopyConfig cfg_;
  TransferMux& mux_;  // borrowed from the controller

  std::string req_service_;  // source-side: page requests land here

  std::vector<proc::VirtAddr> queue_;  // background fetch order (ascending)
  std::size_t queue_pos_ = 0;
  std::vector<proc::VirtAddr> batch_inflight_;  // outstanding prefetch batch
  std::map<proc::VirtAddr, sim::TimeNs> pending_faults_;  // page -> sent at

  DoneCb done_;
  bool started_ = false;
  bool drained_ = false;
  bool finish_scheduled_ = false;
  sim::TimeNs started_at_ = 0;
  sim::TimeNs drained_at_ = 0;
  sim::EventHandle watchdog_;
  std::uint64_t progress_ = 0;  // pages landed or answered; watchdog stall detector
  std::uint64_t last_progress_ = 0;
  int stalls_ = 0;

  PostcopyStats st_;
  obs::Histogram fault_ns_{obs::Histogram::kDefaultExactCapacity};
};

}  // namespace migr::migrlib
