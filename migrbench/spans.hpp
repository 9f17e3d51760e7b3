// In-memory span log of a traced benchmark run. Spans are recorded around
// the benchmark's own calls into the simulator (set-up steps, workflow
// starts, run_until slices, probes), kept in memory, and written once when
// the run ends. Every span of one run shares the run id.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace migrbench {

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  explicit SpanLog(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(std::chrono::steady_clock::now()) {}

  /// Open a span; returns its id for close() and for children's `parent`.
  int open(std::string name, int parent = kNoParent) {
    spans_.push_back({std::move(name), parent, now_ns(), -1, {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// Attach a numeric argument (simulated time, a counter delta) to a span.
  void arg(int id, std::string key, double value) {
    spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key), value);
  }

  std::size_t size() const noexcept { return spans_.size(); }

  /// Write every span as one JSON document; false if the file cannot be
  /// written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"run_id\":\"%s\",\"spans\":[", run_id_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.parent,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
      for (const auto& [k, v] : s.args) std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  /// RAII span for straight-line scopes.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, int parent = kNoParent)
        : log_(log), id_(log != nullptr ? log->open(std::move(name), parent) : kNoParent) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const noexcept { return id_; }

   private:
    SpanLog* log_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    std::int64_t start_ns = 0;  // wall ns since the log was created
    std::int64_t end_ns = -1;
    std::vector<std::pair<std::string, double>> args;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Null-tolerant span calls: untraced repetitions pass a null log.
inline int open_span(SpanLog* log, std::string name, int parent = SpanLog::kNoParent) {
  return log != nullptr ? log->open(std::move(name), parent) : SpanLog::kNoParent;
}
inline void close_span(SpanLog* log, int id) {
  if (log != nullptr) log->close(id);
}

}  // namespace migrbench
