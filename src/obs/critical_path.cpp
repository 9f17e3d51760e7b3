#include "obs/critical_path.hpp"

#include <algorithm>

namespace migr::obs {

const char* edge_class_name(EdgeClass cls) {
  switch (cls) {
    case EdgeClass::wbs_wait: return "wbs_wait";
    case EdgeClass::ckpt_dump: return "ckpt_dump";
    case EdgeClass::chunk_wire: return "chunk_wire";
    case EdgeClass::chunk_retry: return "chunk_retry";
    case EdgeClass::restore_apply: return "restore_apply";
    case EdgeClass::qp_reestablish: return "qp_reestablish";
    case EdgeClass::ctrl_rtt: return "ctrl_rtt";
    case EdgeClass::scheduler_hold: return "scheduler_hold";
    case EdgeClass::slack: return "slack";
  }
  return "?";
}

EdgeClass CriticalPath::dominant() const noexcept {
  EdgeClass best = EdgeClass::slack;
  std::int64_t best_ns = 0;
  for (std::size_t i = 0; i + 1 < kEdgeClassCount; ++i) {  // slack excluded
    if (by_class[i] > best_ns) {
      best_ns = by_class[i];
      best = static_cast<EdgeClass>(i);
    }
  }
  return best_ns > 0 ? best : EdgeClass::slack;
}

void CriticalPath::write(common::Json& j) const {
  j.obj().key("window_start_ns").val(window_start).key("window_end_ns").val(window_end);
  j.key("total_ns").val(total()).key("dominant").val(edge_class_name(dominant()));
  j.key("by_class").obj();
  for (std::size_t i = 0; i < kEdgeClassCount; ++i) {
    j.key(edge_class_name(static_cast<EdgeClass>(i))).val(by_class[i]);
  }
  j.end().key("edges").arr();
  for (const CpEdge& e : edges) {
    j.obj().key("class").val(edge_class_name(e.cls)).key("start_ns").val(e.start);
    j.key("dur_ns").val(e.dur());
    if (!e.label.empty()) j.key("label").val(e.label);
    j.end();
  }
  j.end().end();
}

CriticalPath CpRecorder::resolve(std::int64_t window_start, std::int64_t window_end) const {
  CriticalPath cp;
  cp.window_start = window_start;
  cp.window_end = window_end;
  if (window_end <= window_start) return cp;
  cp.valid = true;

  // Backward walk: at each cursor, the chosen interval is the one that
  // reaches furthest toward the cursor (max min(end, cursor)); among equals
  // the latest-starting (shortest) interval wins, then the latest-recorded —
  // all deterministic, no sim state consulted.
  std::vector<CpEdge> rev;
  std::int64_t cursor = window_end;
  while (cursor > window_start) {
    const CpInterval* best = nullptr;
    std::int64_t best_reach = window_start;
    for (const CpInterval& iv : intervals_) {
      if (iv.start >= cursor || iv.end <= window_start) continue;
      const std::int64_t reach = std::min(iv.end, cursor);
      if (best == nullptr || reach > best_reach ||
          (reach == best_reach && iv.start >= best->start)) {
        best = &iv;
        best_reach = reach;
      }
    }
    if (best == nullptr) {
      rev.push_back(CpEdge{window_start, cursor, EdgeClass::slack, {}});
      break;
    }
    if (best_reach < cursor) {
      rev.push_back(CpEdge{best_reach, cursor, EdgeClass::slack, {}});
      cursor = best_reach;
      continue;  // re-pick: `best` is still the frontier candidate
    }
    const std::int64_t seg_start = std::max(best->start, window_start);
    rev.push_back(CpEdge{seg_start, cursor, best->cls, best->label});
    cursor = seg_start;
  }
  // Reverse into time order and coalesce adjacent same-class/same-label
  // edges (slack fragments in particular).
  cp.edges.reserve(rev.size());
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    if (!cp.edges.empty() && cp.edges.back().cls == it->cls &&
        cp.edges.back().label == it->label && cp.edges.back().end == it->start) {
      cp.edges.back().end = it->end;
    } else {
      cp.edges.push_back(*it);
    }
  }
  for (const CpEdge& e : cp.edges) {
    cp.by_class[static_cast<std::size_t>(e.cls)] += e.dur();
  }
  return cp;
}

}  // namespace migr::obs
