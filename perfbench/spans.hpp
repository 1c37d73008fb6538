// Benchmark-side tracing: a span around each call the benchmark makes into a
// layer's public API. Each thread owns one SpanLog (no sharing, no locks);
// spans nest through a per-log stack, so a span's parent is whatever span
// the same thread had open when it started. Spans of one message or
// collective instance share an op id across ranks. Everything stays in
// memory until the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/timing.hpp"

namespace nemobench {

struct SpanRec {
  std::uint16_t name = 0;    ///< Index into SpanNames.
  std::uint16_t thread = 0;  ///< Rank or worker index of the recording thread.
  std::uint32_t parent = UINT32_MAX;  ///< Index in the same log; none = max.
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-wide name table. Interned once per call site (static local), so
/// the recording hot path only stores the index.
std::uint16_t span_name(const char* name);
const std::string& span_name_of(std::uint16_t id);

class SpanLog {
 public:
  /// Spans past `cap` are dropped (counted): a run stops tracing rather
  /// than growing without bound.
  explicit SpanLog(int thread, std::size_t cap = 1u << 20)
      : thread_(static_cast<std::uint16_t>(thread)), cap_(cap) {
    recs_.reserve(cap < 4096 ? cap : 4096);
  }

  std::uint32_t open(std::uint16_t name, std::uint64_t op) {
    if (recs_.size() >= cap_) {
      ++dropped_;
      return UINT32_MAX;
    }
    SpanRec r;
    r.name = name;
    r.thread = thread_;
    r.parent = stack_.empty() ? UINT32_MAX : stack_.back();
    r.op = op;
    auto idx = static_cast<std::uint32_t>(recs_.size());
    recs_.push_back(r);
    stack_.push_back(idx);
    recs_.back().start_ns = nemo::now_ns();
    return idx;
  }

  void close(std::uint32_t idx) {
    std::uint64_t t = nemo::now_ns();
    if (idx == UINT32_MAX) return;
    recs_[idx].end_ns = t;
    stack_.pop_back();
  }

  [[nodiscard]] bool full() const { return recs_.size() >= cap_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<SpanRec>& records() const { return recs_; }

 private:
  std::uint16_t thread_;
  std::size_t cap_;
  std::vector<SpanRec> recs_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null log (untraced run) costs one branch.
class Span {
 public:
  Span(SpanLog* log, std::uint16_t name, std::uint64_t op = 0) : log_(log) {
    if (log_ != nullptr) idx_ = log_->open(name, op);
  }
  ~Span() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t idx_ = UINT32_MAX;
};

/// Durations (ns) of every span named `name` in `logs`.
std::vector<double> span_durations(const std::vector<const SpanLog*>& logs,
                                   std::uint16_t name);

/// Per-name totals: calls, wall time, and self time (wall minus the part
/// covered by child spans on the same thread).
struct SelfTime {
  std::uint64_t calls = 0;
  double total_ns = 0;
  double self_ns = 0;
};
std::map<std::string, SelfTime> self_times(
    const std::vector<const SpanLog*>& logs);

/// Write every span as CSV (thread,op,name,parent,start_ns,end_ns).
bool write_spans_csv(const std::string& path,
                     const std::vector<const SpanLog*>& logs);

}  // namespace nemobench
