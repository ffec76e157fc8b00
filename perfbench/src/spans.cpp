#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "stats.hpp"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int this_thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

/// Spans open on this thread, innermost last: the parent of a new span.
thread_local std::vector<int> t_open;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int SpanRecorder::begin(const char* name, std::int64_t id) {
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent = t_open.empty() ? -1 : t_open.back();
  record.thread = this_thread_number();
  record.begin_ns = now_ns();
  int index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(record));
  }
  t_open.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  const std::int64_t t = now_ns();
  if (t_open.empty() || t_open.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
  const std::int64_t origin = all.empty() ? 0 : all.front().begin_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.begin_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("failed writing trace '" + path + "'");
}

double median_seconds(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<double> values;
  for (const SpanRecord& s : spans) {
    if (s.name == name) values.push_back(s.seconds());
  }
  return values.empty() ? 0.0 : median(std::move(values));
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t b = std::max(s.begin_ns, p.begin_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) children[static_cast<std::size_t>(s.parent)].emplace_back(b, e);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].begin_ns;
    for (const auto& [b, e] : intervals) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].begin_ns -
                                  covered) *
              1e-9;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.count += 1;
    t.total_seconds += spans[i].seconds();
    t.self_seconds += self[i];
  }
  return totals;
}

}  // namespace perfbench
