#include "obs/timeseries.hpp"

#include <algorithm>
#include <charconv>

#include "common/json.hpp"

namespace migr::obs {

namespace {

std::string num(double v) {
  // %.17g round-trips doubles exactly; trim the common integer case so the
  // CSV stays readable (counters dominate).
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];  // "-1.2345678901234567e-308" is the longest %.17g form
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  return {buf, r.ptr};
}

}  // namespace

bool TimeSeriesSampler::matches(const std::string& name) const {
  if (opts_.prefixes.empty()) return true;
  for (const std::string& p : opts_.prefixes) {
    if (name.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

std::uint32_t TimeSeriesSampler::column_id(const std::string& name) {
  auto it = columns_.find(name);
  if (it != columns_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(columns_.size());
  columns_.emplace(name, id);
  return id;
}

void TimeSeriesSampler::sample(std::int64_t now_ns) {
  Row row;
  row.ts_ns = now_ns;
  const auto snap = registry_.snapshot();
  row.values.reserve(snap.size());
  for (const SnapshotEntry& e : snap) {
    if (!matches(e.name)) continue;
    row.values.emplace_back(column_id(e.name), e.value);
    if (e.kind == SnapshotEntry::Kind::histogram) {
      row.values.emplace_back(column_id(e.name + ".count"), static_cast<double>(e.count));
    }
  }
  rows_.push_back(std::move(row));
}

void TimeSeriesSampler::clear() {
  columns_.clear();
  rows_.clear();
}

std::string TimeSeriesSampler::export_csv() const {
  std::string out;
  out.reserve(rows_.size() * 64 + 256);
  out += "ts_ns";
  for (const auto& [name, id] : columns_) {
    (void)id;
    out += ',';
    // Labelled instruments render as name{a=1,b=2} — RFC-4180-quote any
    // column whose name would otherwise split the header row.
    if (name.find(',') != std::string::npos || name.find('"') != std::string::npos) {
      out += '"';
      for (char c : name) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    } else {
      out += name;
    }
  }
  out += '\n';

  std::vector<std::uint32_t> order;  // column id in name-sorted position
  order.reserve(columns_.size());
  for (const auto& [name, id] : columns_) {
    (void)name;
    order.push_back(id);
  }

  std::vector<double> cells;
  std::vector<bool> present;
  for (const Row& row : rows_) {
    cells.assign(columns_.size(), 0.0);
    present.assign(columns_.size(), false);
    for (const auto& [id, v] : row.values) {
      cells[id] = v;
      present[id] = true;
    }
    out += std::to_string(row.ts_ns);
    for (std::uint32_t id : order) {
      out += ',';
      if (present[id]) out += num(cells[id]);
    }
    out += '\n';
  }
  return out;
}

std::string TimeSeriesSampler::export_json() const {
  std::string out;
  out.reserve(rows_.size() * 64 + 256);
  common::Json j(out);
  j.obj().key("kind").val("timeseries").key("series").arr();
  for (const auto& [name, id] : columns_) {
    j.obj().key("name").val(name).key("points").arr();
    for (const Row& row : rows_) {
      for (const auto& [cid, v] : row.values) {
        if (cid != id) continue;
        j.arr().val(row.ts_ns).raw(num(v)).end();
        break;
      }
    }
    j.end().end();
  }
  j.end().end();
  return out;
}

common::Status TimeSeriesSampler::write(const std::string& path) const {
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return common::write_file(path, json ? export_json() : export_csv());
}

}  // namespace migr::obs
