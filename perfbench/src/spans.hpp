#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

// The benchmark's own span recorder. Spans wrap the calls the benchmark
// makes into each sgnn layer (never code inside the library): name, start,
// end, the enclosing span on the same thread, and one id per step or
// request. They stay in memory and are written as Chrome trace-event JSON
// when the run ends. A disabled recorder costs one branch per span.

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t id = -1;    ///< step or request id; -1 when not per-unit
  int parent = -1;         ///< index of the enclosing span, -1 at top level
  int thread = 0;          ///< small per-thread number (Chrome "tid")
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  double seconds() const {
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span on the calling thread; returns its index (-1 if disabled).
  int begin(const char* name, std::int64_t id);
  /// Closes the span `index` opened on the calling thread.
  void end(int index);

  std::vector<SpanRecord> spans() const;
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// RAII span; a no-op when the recorder is disabled.
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name, std::int64_t id = -1)
      : recorder_(recorder),
        index_(recorder.enabled() ? recorder.begin(name, id) : -1) {}
  ~Span() {
    if (index_ >= 0) recorder_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Median duration of the spans called `name`; 0 when there are none.
double median_seconds(const std::vector<SpanRecord>& spans, const char* name);

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

struct SpanTotals {
  std::int64_t count = 0;
  double total_seconds = 0;
  double self_seconds = 0;
};

/// Per-name aggregate of spans (count, summed duration, summed self time).
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
