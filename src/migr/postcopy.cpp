#include "migr/postcopy.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/log.hpp"
#include "migr/xfer.hpp"
#include "obs/metrics.hpp"

namespace migr::migrlib {

using common::ByteReader;
using common::Bytes;
using common::ByteWriter;
using common::Errc;
using common::Status;

namespace {
// Stall watchdog: if no page arrives for this long while fetches are
// outstanding, re-request; after kMaxFetchRetries stalls the drain fails.
constexpr sim::DurationNs kFetchTimeout = sim::msec(100);
constexpr int kMaxFetchRetries = 5;
}  // namespace

void PostcopyStats::write(common::Json& j) const {
  j.obj().key("missing_pages").val(missing_pages).key("demand_faults").val(demand_faults);
  j.key("prefetched_pages").val(prefetched_pages).key("fetch_requests").val(fetch_requests);
  j.key("fetch_bytes").val(fetch_bytes).key("retries").val(retries).key("drain_ns").val(drain_ns);
  j.key("fault_ns").obj().key("p50").val(fault_p50_ns).key("p99").val(fault_p99_ns);
  j.key("max").val(fault_max_ns).end().end();
}

PostcopyPump::PostcopyPump(sim::EventLoop& loop, net::Fabric& fabric, std::uint32_t guest,
                           net::HostId src_host, net::HostId dest_host,
                           proc::SimProcess& src_proc, proc::SimProcess& dest_proc,
                           rnic::Device& src_dev, TransferMux& mux, PostcopyConfig cfg)
    : loop_(loop), fabric_(fabric), guest_(guest), src_host_(src_host),
      dest_host_(dest_host), src_proc_(src_proc), dest_proc_(dest_proc),
      src_dev_(src_dev), cfg_(cfg), mux_(mux),
      req_service_("migr.pcp.req." + std::to_string(guest)) {}

PostcopyPump::~PostcopyPump() {
  watchdog_.cancel();
  fabric_.unregister_service(src_host_, req_service_);
  dest_proc_.mem().set_fault_hook(nullptr);
}

void PostcopyPump::arm(std::vector<proc::VirtAddr> missing) {
  queue_ = std::move(missing);
  st_.missing_pages = queue_.size();
  auto& mem = dest_proc_.mem();
  for (proc::VirtAddr p : queue_) mem.mark_missing(p);
  mem.set_fault_hook([this](proc::VirtAddr page) { on_fault(page); });
  fabric_.register_service(src_host_, req_service_, [this](net::HostId, Bytes&& p) {
    on_request(std::move(p));
  });
  // Page data rides the controller's mux; a mux-level failure is not fatal
  // here — the stall watchdog owns drain failure.
  mux_.open([this](Bytes&& p) { on_data(std::move(p)); },
            [this](const common::Status& st) {
              MIGR_WARN() << "postcopy mux transfer failed for guest " << guest_ << ": "
                          << st.to_string();
            });
}

void PostcopyPump::start(DoneCb done) {
  done_ = std::move(done);
  started_ = true;
  started_at_ = loop_.now();
  watchdog_ = loop_.schedule_every(kFetchTimeout, [this] { on_watchdog(); });
  request_next_batch();
  maybe_finish();
}

void PostcopyPump::on_fault(proc::VirtAddr page) {
  // The guest's access completes within this event, so fill the page right
  // here from the (frozen, authoritative) source copy — then put the READ
  // on the wire so the fetch costs honest egress/propagation time. The RTT
  // of that request->reply pair is the recorded fault latency; the drain is
  // not complete until the reply lands.
  copy_page(page);
  st_.demand_faults++;
  progress_++;
  pending_faults_.emplace(page, loop_.now());
  send_request(kFault, {page});
  obs::Registry::global().counter("migr.postcopy.demand_faults").inc();
}

void PostcopyPump::send_request(std::uint8_t kind, const std::vector<proc::VirtAddr>& pages) {
  ByteWriter w;
  w.u8(kind);
  w.u32(static_cast<std::uint32_t>(pages.size()));
  for (proc::VirtAddr p : pages) w.u64(p);
  st_.fetch_requests++;
  auto sent = fabric_.send_ctrl(dest_host_, src_host_, req_service_, std::move(w).take());
  if (!sent.is_ok()) {
    MIGR_WARN() << "postcopy page request send failed: " << sent.status().to_string();
  }
}

void PostcopyPump::on_request(Bytes&& payload) {
  ByteReader r{payload};
  auto kind = r.u8();
  // A count the frame cannot carry (8 bytes per page) drops the frame: it
  // would hold the source under ctrl pressure for pages nobody asked for.
  auto count = r.count<std::uint32_t>(8);
  if (!kind.is_ok() || !count.is_ok()) return;
  // The source-side page server walks frozen process memory: ctrl pressure
  // on the source NIC, like the dump walks during pre-copy.
  src_dev_.add_ctrl_pressure(kPostcopyPerPageRead *
                             static_cast<sim::DurationNs>(count.value()));
  ByteWriter w;
  w.u8(kind.value());
  w.u32(count.value());
  for (std::uint32_t i = 0; i < count.value(); i++) {
    auto addr = r.u64();
    if (!addr.is_ok()) return;
    w.u64(addr.value());
    auto phys = src_proc_.mem().page_at(addr.value());
    static const std::array<std::uint8_t, proc::kPageSize> kZeros{};
    w.bytes(phys ? std::span<const std::uint8_t>{*phys} : std::span<const std::uint8_t>{kZeros});
  }
  mux_.send(std::move(w).take());
}

void PostcopyPump::on_data(Bytes&& payload) {
  st_.fetch_bytes += payload.size();
  ByteReader r{payload};
  auto kind = r.u8();
  auto count = r.count<std::uint32_t>(8 + 4);  // address + length prefix per page
  if (!kind.is_ok() || !count.is_ok()) return;
  auto& mem = dest_proc_.mem();
  auto& reg = obs::Registry::global();
  const sim::TimeNs now = loop_.now();
  for (std::uint32_t i = 0; i < count.value(); i++) {
    auto addr = r.u64();
    auto data = r.view();
    if (!addr.is_ok() || !data.is_ok()) break;
    // Only a page carried in full is installed; a short one leaves the page
    // missing for a later reply.
    if (data.value().size() != proc::kPageSize) continue;
    const proc::VirtAddr page = addr.value();
    if (mem.clear_missing(page)) {
      // Still missing: this delivery owns the page. Install the contents
      // directly (no write(): the fill is not guest dirtying).
      if (auto phys = mem.page_at(page)) {
        std::copy(data.value().begin(), data.value().end(), phys->begin());
      }
      st_.prefetched_pages++;
      progress_++;
      reg.counter("migr.postcopy.prefetched_pages").inc();
    }
    auto pf = pending_faults_.find(page);
    if (pf != pending_faults_.end()) {
      const sim::DurationNs rtt = now - pf->second;
      fault_ns_.record(rtt);
      reg.histogram("migr.postcopy.fault_ns").observe(rtt);
      pending_faults_.erase(pf);
      progress_++;
    }
  }
  if (kind.value() == kPrefetch) {
    batch_inflight_.clear();
    request_next_batch();
  }
  maybe_finish();
}

void PostcopyPump::request_next_batch() {
  if (!started_ || drained_ || finish_scheduled_) return;
  if (!batch_inflight_.empty()) return;
  auto& mem = dest_proc_.mem();
  std::vector<proc::VirtAddr> batch;
  while (queue_pos_ < queue_.size() && batch.size() < cfg_.batch_pages) {
    const proc::VirtAddr p = queue_[queue_pos_++];
    if (mem.missing(p)) batch.push_back(p);  // skip pages that faulted in
  }
  if (batch.empty()) return;  // stream done; demand faults may still be live
  batch_inflight_ = batch;
  send_request(kPrefetch, batch);
}

void PostcopyPump::on_watchdog() {
  if (drained_ || finish_scheduled_) return;
  if (progress_ != last_progress_) {
    last_progress_ = progress_;
    stalls_ = 0;
    return;
  }
  if (batch_inflight_.empty() && pending_faults_.empty() &&
      dest_proc_.mem().missing_count() == 0) {
    return;  // nothing outstanding; maybe_finish owns completion
  }
  stalls_++;
  if (stalls_ > kMaxFetchRetries) {
    return finish(common::err(Errc::timeout, "postcopy page fetch stalled"));
  }
  st_.retries++;
  MIGR_WARN() << "postcopy fetch stalled for guest " << guest_ << "; re-requesting ("
              << stalls_ << "/" << kMaxFetchRetries << ")";
  // A lost reply chunk holds every later reply behind it until its chunk
  // deadline (the migration's transfer_timeout, far longer than this
  // watchdog's budget): drop the stuck replies; the re-requests below cover
  // every page still outstanding.
  mux_.cancel();
  if (!batch_inflight_.empty()) send_request(kPrefetch, batch_inflight_);
  // Pending faults go out in prefetch-sized groups, so each reply is one
  // small transfer and a lost chunk costs its own group, not all of them.
  std::vector<proc::VirtAddr> pages;
  for (const auto& [p, t] : pending_faults_) {
    pages.push_back(p);
    if (pages.size() == cfg_.batch_pages) {
      send_request(kFault, pages);
      pages.clear();
    }
  }
  if (!pages.empty()) send_request(kFault, pages);
}

void PostcopyPump::maybe_finish() {
  if (!started_ || drained_ || finish_scheduled_) return;
  if (dest_proc_.mem().missing_count() != 0) return;
  if (!pending_faults_.empty() || !batch_inflight_.empty()) return;
  // Completion is observed inside the mux's delivery callback or the fault
  // hook; finish() removes that hook and hands the migration back to the
  // controller, so it runs on a fresh event, after the observing handler
  // returned.
  finish_scheduled_ = true;
  loop_.schedule_in(0, [this] { finish(Status::ok()); });
}

void PostcopyPump::finish(const Status& st) {
  if (drained_) return;
  drained_ = st.is_ok();
  drained_at_ = loop_.now();
  finish_scheduled_ = false;
  watchdog_.cancel();
  fabric_.unregister_service(src_host_, req_service_);
  dest_proc_.mem().set_fault_hook(nullptr);
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done(st);
  }
}

void PostcopyPump::copy_page(proc::VirtAddr page) {
  auto dst = dest_proc_.mem().page_at(page);
  if (!dst) return;  // unmapped in the meantime; nothing to fill
  auto src = src_proc_.mem().page_at(page);
  if (src) std::copy(src->begin(), src->end(), dst->begin());
}

PostcopyStats PostcopyPump::stats() const {
  PostcopyStats out = st_;
  out.enabled = true;
  out.drain_ns = drained_ ? drained_at_ - started_at_ : 0;
  if (fault_ns_.count() > 0) {
    out.fault_p50_ns = fault_ns_.percentile(50);
    out.fault_p99_ns = fault_ns_.percentile(99);
    out.fault_max_ns = fault_ns_.max();
  }
  return out;
}

}  // namespace migr::migrlib
