#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/metrics.hpp"

namespace migr::obs {

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  buf_.reserve(std::min<std::size_t>(capacity_, 1024));
}

Tracer::~Tracer() { close_incremental(); }

void Tracer::set_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  clear();
}

void Tracer::clear() {
  buf_.clear();
  head_ = 0;
  total_ = 0;
  next_id_ = 0;
  ctx_ = {};
  spilled_ = 0;
  close_incremental();
}

void Tracer::push(TraceEvent ev) {
  total_++;
  if (buf_.size() < capacity_) {
    buf_.push_back(std::move(ev));
    return;
  }
  if (inc_file_ != nullptr) {
    // Bounded-memory mode: move the whole buffer to disk, then keep going.
    (void)spill_buffer();
    buf_.push_back(std::move(ev));
    return;
  }
  buf_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
  Registry::global().counter("obs.trace.dropped").inc();
}

void Tracer::begin(std::int64_t ts_ns, std::string_view name, std::string_view cat,
                   std::string args) {
  if (!enabled()) return;
  push(TraceEvent{TraceEvent::Phase::begin, ts_ns, 0, 0, 0, std::string{name},
                  std::string{cat}, std::move(args)});
}

void Tracer::end(std::int64_t ts_ns, std::string_view name, std::string_view cat) {
  if (!enabled()) return;
  push(TraceEvent{TraceEvent::Phase::end, ts_ns, 0, 0, 0, std::string{name},
                  std::string{cat}, {}});
}

void Tracer::complete(std::int64_t ts_ns, std::int64_t dur_ns, std::string_view name,
                      std::string_view cat, std::string args, std::uint64_t id,
                      std::uint64_t parent) {
  if (!enabled()) return;
  push(TraceEvent{TraceEvent::Phase::complete, ts_ns, dur_ns, id, parent,
                  std::string{name}, std::string{cat}, std::move(args)});
}

void Tracer::instant(std::int64_t ts_ns, std::string_view name, std::string_view cat,
                     std::string args, std::uint64_t id, std::uint64_t parent) {
  if (!enabled()) return;
  push(TraceEvent{TraceEvent::Phase::instant, ts_ns, 0, id, parent, std::string{name},
                  std::string{cat}, std::move(args)});
}

void Tracer::flow_start(std::int64_t ts_ns, std::string_view name, std::string_view cat,
                        std::uint64_t flow_id, std::string args) {
  if (!enabled()) return;
  push(TraceEvent{TraceEvent::Phase::flow_start, ts_ns, 0, flow_id, 0, std::string{name},
                  std::string{cat}, std::move(args)});
}

void Tracer::flow_finish(std::int64_t ts_ns, std::string_view name, std::string_view cat,
                         std::uint64_t flow_id, std::string args) {
  if (!enabled()) return;
  push(TraceEvent{TraceEvent::Phase::flow_finish, ts_ns, 0, flow_id, 0, std::string{name},
                  std::string{cat}, std::move(args)});
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

namespace {

// Chrome wants microseconds; print with nanosecond resolution and no
// floating-point round-trip (ns exactness matters to the tests).
std::string exact_us(std::int64_t ns) {
  const auto mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns) : static_cast<std::uint64_t>(ns);
  const std::string frac = std::to_string(1000 + mag % 1000);  // "1" and three digits
  return (ns < 0 ? "-" : "") + std::to_string(mag / 1000) + '.' + frac.substr(1);
}

}  // namespace

void Tracer::append_event_json(common::Json& j, const TraceEvent& ev,
                               std::map<std::string, int>& tids) const {
  // Assign one Perfetto track ("thread") per category in first-seen order,
  // emitting the thread_name metadata record inline the first time (viewers
  // accept metadata anywhere in the stream).
  auto [it, inserted] = tids.emplace(ev.cat, static_cast<int>(tids.size()) + 1);
  if (inserted) {
    j.obj().key("name").val("thread_name").key("ph").val("M").key("pid").val(1);
    j.key("tid").val(it->second).key("args").obj().key("name").val(ev.cat).end().end();
  }
  const char ph[] = {static_cast<char>(ev.ph), '\0'};
  j.obj().key("name").val(ev.name).key("cat").val(ev.cat).key("ph").val(ph);
  j.key("ts").raw(exact_us(ev.ts_ns));
  if (ev.ph == TraceEvent::Phase::complete) j.key("dur").raw(exact_us(ev.dur_ns));
  // A global-scope instant draws a full-height line; a flow finish binds to
  // the enclosing slice.
  if (ev.ph == TraceEvent::Phase::instant) j.key("s").val("g");
  const bool flow =
      ev.ph == TraceEvent::Phase::flow_start || ev.ph == TraceEvent::Phase::flow_finish;
  if (flow) j.key("id").val(ev.id);
  if (ev.ph == TraceEvent::Phase::flow_finish) j.key("bp").val("e");
  j.key("pid").val(1).key("tid").val(it->second);
  j.key("args").obj().key("ts_ns").val(ev.ts_ns);
  if (ev.ph == TraceEvent::Phase::complete) j.key("dur_ns").val(ev.dur_ns);
  if (ev.id != 0 && !flow) j.key("id").val(ev.id);
  if (ev.parent != 0) j.key("parent").val(ev.parent);
  j.raw(ev.args).end().end();
}

void Tracer::append_stats_json(common::Json& j) const {
  // Stats record so tools can tell a complete graph from a truncated one
  // (the parent-link check is only sound when nothing was evicted).
  j.obj().key("name").val("trace_stats").key("ph").val("M").key("pid").val(1);
  j.key("tid").val(0).key("args").obj().key("total").val(total_);
  j.key("dropped").val(dropped()).key("spilled").val(spilled_).end().end();
}

std::string Tracer::export_chrome_json() const {
  const auto evs = events();
  std::map<std::string, int> tids;
  std::string out;
  out.reserve(evs.size() * 128 + 256);
  common::Json j(out);
  j.obj().key("displayTimeUnit").val("ms").key("traceEvents").arr();
  for (const auto& ev : evs) append_event_json(j, ev, tids);
  append_stats_json(j);
  j.end().end();
  return out;
}

common::Status Tracer::set_incremental_path(const std::string& path) {
  close_incremental();
  if (path.empty()) return common::Status::ok();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return common::err(common::Errc::internal, "cannot open trace spill file " + path);
  }
  const char* prefix = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  std::fwrite(prefix, 1, std::strlen(prefix), f);
  std::fflush(f);
  inc_file_ = f;
  inc_path_ = path;
  inc_tids_.clear();
  inc_first_ = true;
  return common::Status::ok();
}

common::Status Tracer::spill_buffer() {
  if (inc_file_ == nullptr || buf_.empty()) return common::Status::ok();
  // Rewind over the closing "]}"" and append this batch, then re-close so the
  // file is valid JSON between spills (an aborted run keeps a loadable file).
  if (std::fseek(inc_file_, -2, SEEK_END) != 0) {
    return common::err(common::Errc::internal, "cannot seek trace spill file " + inc_path_);
  }
  std::string out;
  out.reserve(buf_.size() * 128);
  if (!inc_first_) out += ',';
  inc_first_ = false;
  common::Json j(out);  // the batch continues the file's event array
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    append_event_json(j, buf_[(head_ + i) % buf_.size()], inc_tids_);
  }
  out += "]}";
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), inc_file_);
  std::fflush(inc_file_);
  spilled_ += buf_.size();
  buf_.clear();
  head_ = 0;
  if (written != out.size()) {
    return common::err(common::Errc::internal, "short write to trace spill file " + inc_path_);
  }
  return common::Status::ok();
}

void Tracer::close_incremental() {
  if (inc_file_ != nullptr) {
    std::fclose(inc_file_);
    inc_file_ = nullptr;
  }
  inc_path_.clear();
  inc_tids_.clear();
  inc_first_ = true;
}

common::Status Tracer::flush() {
  if (inc_file_ != nullptr) return spill_buffer();
  if (flush_path_.empty()) return common::Status::ok();
  return write_chrome_json(flush_path_);
}

common::Status Tracer::write_chrome_json(const std::string& path) {
  if (inc_file_ != nullptr && path == inc_path_) {
    // Finalize the incremental file: spill the tail and close. The stats
    // record is appended as a final batch element.
    common::Status st = spill_buffer();
    if (!st.is_ok()) return st;
    if (std::fseek(inc_file_, -2, SEEK_END) == 0) {
      std::string out;
      if (!inc_first_) out += ',';
      common::Json j(out);
      append_stats_json(j);
      out += "]}";
      std::fwrite(out.data(), 1, out.size(), inc_file_);
    }
    close_incremental();
    return common::Status::ok();
  }
  return common::write_file(path, export_chrome_json());
}

}  // namespace migr::obs
