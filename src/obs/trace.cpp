#include "sgnn/obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sgnn/util/error.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/parse.hpp"

namespace sgnn::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

thread_local int t_current_rank = -1;

std::uint32_t assign_tid() {
  static std::atomic<std::uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Rank -1 spans (dataset generation, single-process training) get their own
/// timeline lane instead of colliding with rank 0.
constexpr int kUnrankedPid = 1000;

}  // namespace

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable() {
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.events.clear();
  }
}

std::int64_t TraceRecorder::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int TraceRecorder::current_rank() { return t_current_rank; }

void TraceRecorder::set_current_rank(int rank) { t_current_rank = rank; }

std::uint32_t TraceRecorder::current_tid() {
  thread_local const std::uint32_t tid = assign_tid();
  return tid;
}

void TraceRecorder::record(TraceEvent event) {
  Shard& shard = shards_[event.tid % kShards];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.push_back(std::move(event));
}

std::size_t TraceRecorder::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.events.size();
  }
  return total;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> all;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    all.insert(all.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.begin_us < b.begin_us;
            });
  return all;
}

std::string TraceRecorder::to_chrome_json() const {
  const std::vector<TraceEvent> all = events();

  std::string out;
  out.reserve(128 + all.size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;

  // Process-name metadata so Perfetto labels each rank's timeline.
  std::vector<int> pids;
  for (const auto& event : all) {
    const int pid = event.rank >= 0 ? event.rank : kUnrankedPid;
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      pids.push_back(pid);
    }
  }
  for (const int pid : pids) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += pid == kUnrankedPid ? std::string("main")
                               : "rank " + std::to_string(pid);
    out += "\"}}";
  }

  for (const auto& event : all) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += util::json_escape(event.name);
    out += "\",\"cat\":\"";
    out += util::json_escape(event.category);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(event.begin_us);
    out += ",\"dur\":";
    out += std::to_string(std::max<std::int64_t>(
        std::int64_t{0}, event.end_us - event.begin_us));
    out += ",\"pid\":";
    out += std::to_string(event.rank >= 0 ? event.rank : kUnrankedPid);
    out += ",\"tid\":";
    out += std::to_string(event.tid);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"";
        out += util::json_escape(key);
        out += "\":\"";
        out += util::json_escape(value);
        out += "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  SGNN_CHECK(file.good(), "cannot open trace output file " << path);
  file << to_chrome_json() << '\n';
  SGNN_CHECK(file.good(), "failed writing trace to " << path);
}

ScopedTraceRank::ScopedTraceRank(int rank)
    : previous_rank_(TraceRecorder::current_rank()),
      previous_log_rank_(Logger::thread_rank()) {
  TraceRecorder::set_current_rank(rank);
  Logger::set_thread_rank(rank);
}

ScopedTraceRank::~ScopedTraceRank() {
  TraceRecorder::set_current_rank(previous_rank_);
  Logger::set_thread_rank(previous_log_rank_);
}

}  // namespace sgnn::obs
