// perfbench: the program behind the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs one workload's fixed, seeded amount of work, checks its outputs and
// prints, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where metrics maps each name the run measured to its value: the
// end-to-end ones, plus the per-layer ones with --trace 1 (which also
// writes a Chrome trace to the work dir). run.py, which holds the declared
// names and units, turns this into the benchmark's result. A line before it,
// starting with "perfbench-info", records the machine fingerprint, noise
// diagnostics and input hashes. Exits non-zero without a result line when
// the run cannot complete.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "machine.hpp"
#include "workload.hpp"

namespace perfbench {

std::int64_t work_units(const RunOptions& options, double units_per_second,
                        std::int64_t minimum) {
  const auto units = static_cast<std::int64_t>(
      std::llround(units_per_second * static_cast<double>(options.seconds)));
  return std::max(units, minimum);
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (o.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  if (o.work_dir.empty()) o.work_dir = ".";
  std::filesystem::create_directories(o.work_dir);
  return o;
}

RunResult run(const RunOptions& options) {
  const std::string& w = options.workload;
  if (w == "train_narrow" || w == "train_wide") return run_train(options);
  if (w == "train_dist") return run_dist(options);
  if (w == "serve_mixed") return run_serve(options);
  throw std::invalid_argument("unknown workload '" + w + "'");
}

void print(const RunOptions& options, const RunResult& result) {
  const Fingerprint f = fingerprint();
  std::ostringstream info;
  info << "perfbench-info {\"workload\":" << quoted(options.workload)
       << ",\"seed\":" << options.seed << ",\"trace\":" << options.trace
       << ",\"cpu_model\":" << quoted(f.cpu_model) << ",\"nproc\":" << f.nproc
       << ",\"backend\":" << quoted(f.backend)
       << ",\"dtype\":" << quoted(f.dtype) << ",\"lanes\":" << f.lanes
       << ",\"steal_share\":" << number(result.noise.steal_share)
       << ",\"sys_share\":" << number(result.noise.sys_share)
       << ",\"minor_faults\":" << result.noise.minor_faults;
  for (const auto& [key, value] : result.info) {
    info << "," << quoted(key) << ":" << quoted(value);
  }
  info << ",\"check_failures\":[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    info << (i ? "," : "") << quoted(result.check_failures[i]);
  }
  info << "]}";

  std::ostringstream out;
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    out << (first ? "" : ", ") << quoted(name) << ": " << number(value);
    first = false;
  }
  out << "}}";
  for (const std::string& failure : result.check_failures) {
    std::cerr << "perfbench: check failed: " << failure << "\n";
  }
  std::cout << info.str() << "\n" << out.str() << std::endl;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::RunOptions options = perfbench::parse(argc, argv);
    const perfbench::RunResult result = perfbench::run(options);
    perfbench::print(options, result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
