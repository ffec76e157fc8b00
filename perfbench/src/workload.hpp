#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine.hpp"
#include "sgnn/obs/metrics.hpp"
#include "spans.hpp"

// What every workload receives and returns. A workload does a fixed,
// seeded amount of work (never "as much as fits"), checks its outputs, and
// returns end-to-end metrics from an untraced run or per-layer metrics
// from a traced one.

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  /// Scales the fixed amount of work: each workload does
  /// `seconds * units_per_second` units, a constant per workload chosen so
  /// a run lasts about `seconds` on a 4-vCPU x86 VM. It never depends on
  /// measured time, so parent and change do the same work.
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (checkpoints, the trace file).
  std::string work_dir;
};

struct RunResult {
  std::int64_t attempted = 0;  ///< training steps or requests
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;
  /// Ungated context printed with the result (fingerprint, noise, hashes).
  std::map<std::string, std::string> info;
  NoiseDiagnostics noise;

  bool correct() const { return check_failures.empty(); }
  /// Records a failed output check (the run then reports correct=false).
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall and process CPU time of one timed unit of work. The gated numbers
/// use the CPU time (see process_cpu_seconds); the wall time is recorded
/// beside it, ungated.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(process_cpu_seconds()) {}
  double wall_seconds() const { return seconds_since(wall_); }
  double cpu_seconds() const { return process_cpu_seconds() - cpu_; }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// Growth of registry counter `name` between two snapshots.
inline double counter_delta(const sgnn::obs::MetricsSnapshot& before,
                            const sgnn::obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto value = [&](const sgnn::obs::MetricsSnapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return static_cast<double>(value(after) - value(before));
}

/// The seed contract: every setup repetition regenerated the same inputs
/// (`setup_hashes`), and the next seed's inputs hash differently.
inline void check_seed(RunResult& result,
                       const std::vector<std::uint64_t>& setup_hashes,
                       std::uint64_t next_seed_hash, const std::string& what) {
  bool same = true;
  for (const std::uint64_t h : setup_hashes) same &= h == setup_hashes[0];
  result.check(same, "one seed gave different " + what);
  result.check(next_seed_hash != setup_hashes[0],
               "two seeds gave the same " + what);
  result.info[what + " hash"] = std::to_string(setup_hashes[0]);
}

/// Number of fixed work units for `options.seconds` (at least `minimum`).
std::int64_t work_units(const RunOptions& options, double units_per_second,
                        std::int64_t minimum = 1);

RunResult run_train(const RunOptions& options);
RunResult run_dist(const RunOptions& options);
RunResult run_serve(const RunOptions& options);

}  // namespace perfbench
