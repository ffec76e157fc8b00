#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace sgnn {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Minimal thread-safe leveled logger writing to stderr. Benches and examples
/// use kInfo; tests default to kWarn to keep ctest output readable.
///
/// Lines carry an ISO-8601 UTC timestamp and, when the calling thread has a
/// rank tag (set by the distributed trainer via set_thread_rank or
/// obs::ScopedTraceRank), a "[rank N]" prefix. The initial level comes from
/// the SGNN_LOG_LEVEL environment variable (debug|info|warn|error|off), read
/// once at startup; set_level still overrides at runtime.
class Logger {
 public:
  static Logger& instance() {
    static Logger logger;
    return logger;
  }

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  /// Per-thread rank prefix; -1 (the default) means no prefix.
  static void set_thread_rank(int rank) { thread_rank_slot() = rank; }
  static int thread_rank() { return thread_rank_slot(); }

  /// Parses a level name; returns `fallback` for unknown/empty input.
  static LogLevel parse_level(const std::string& name, LogLevel fallback) {
    if (name == "debug") return LogLevel::kDebug;
    if (name == "info") return LogLevel::kInfo;
    if (name == "warn" || name == "warning") return LogLevel::kWarn;
    if (name == "error") return LogLevel::kError;
    if (name == "off" || name == "none") return LogLevel::kOff;
    return fallback;
  }

  /// The full line write() emits, exposed for tests.
  std::string format(LogLevel level, const std::string& message) const {
    std::ostringstream os;
    os << iso8601_now() << ' ';
    os << "[" << name(level) << "]";
    const int rank = thread_rank();
    if (rank >= 0) os << " [rank " << rank << "]";
    os << ' ' << message;
    return os.str();
  }

  void write(LogLevel level, const std::string& message) {
    if (level < level_) return;
    const std::string line = format(level, message);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::cerr << line << '\n';
  }

  /// Current UTC wall-clock as e.g. "2026-08-06T12:34:56.789Z".
  static std::string iso8601_now() {
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    const auto now = std::chrono::system_clock::now();
    const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
    const auto millis =
        duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
    std::tm utc{};
    gmtime_r(&seconds, &utc);
    char buf[40];
    const std::size_t len = std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S", &utc);
    std::snprintf(buf + len, sizeof buf - len, ".%03dZ",
                  static_cast<int>(millis));
    return buf;
  }

 private:
  Logger() {
    if (const char* env = std::getenv("SGNN_LOG_LEVEL")) {
      level_ = parse_level(env, level_);
    }
  }

  static int& thread_rank_slot() {
    thread_local int rank = -1;
    return rank;
  }

  static const char* name(LogLevel level) {
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInfo: return "info ";
      case LogLevel::kWarn: return "warn ";
      case LogLevel::kError: return "error";
      case LogLevel::kOff: return "off  ";
    }
    return "?";
  }

  LogLevel level_ = LogLevel::kInfo;
  std::mutex mutex_;
};

namespace detail {

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::instance().write(level_, os_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace sgnn

#define SGNN_LOG_DEBUG ::sgnn::detail::LogMessage(::sgnn::LogLevel::kDebug)
#define SGNN_LOG_INFO ::sgnn::detail::LogMessage(::sgnn::LogLevel::kInfo)
#define SGNN_LOG_WARN ::sgnn::detail::LogMessage(::sgnn::LogLevel::kWarn)
#define SGNN_LOG_ERROR ::sgnn::detail::LogMessage(::sgnn::LogLevel::kError)
