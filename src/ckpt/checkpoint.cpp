#include "sgnn/ckpt/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn::ckpt {

namespace {

constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".sgck";

/// Step-stamped, lexicographically sortable file name.
std::string snapshot_file_name(std::uint64_t step) {
  std::ostringstream os;
  os << kFilePrefix;
  os.width(20);
  os.fill('0');
  os << step << kFileSuffix;
  return os.str();
}

/// Parses the step out of a snapshot file name; nullopt for foreign files.
std::optional<std::uint64_t> parse_snapshot_step(const std::string& name) {
  const std::string prefix(kFilePrefix);
  const std::string suffix(kFileSuffix);
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t step = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    step = step * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return step;
}

/// Snapshot files in `directory`, sorted by step ascending.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_snapshots(
    const std::filesystem::path& directory) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  if (!std::filesystem::is_directory(directory)) return found;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    if (const auto step = parse_snapshot_step(entry.path().filename().string())) {
      found.emplace_back(*step, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

// -- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(std::string directory, int keep_last)
    : directory_(std::move(directory)), keep_last_(keep_last) {
  SGNN_CHECK(!directory_.empty(), "checkpoint directory must be set");
  SGNN_CHECK(keep_last_ >= 2,
             "keep_last must be >= 2 so a corrupt newest checkpoint always "
             "leaves a good fallback");
}

std::string CheckpointManager::save(std::uint64_t step,
                                    const std::string& payload) {
  const WallTimer timer;
  std::filesystem::create_directories(directory_);
  const std::string path =
      (std::filesystem::path(directory_) / snapshot_file_name(step)).string();
  const std::uint64_t file_bytes = write_snapshot_file(path, payload);

  // Retention: prune oldest beyond keep_last. The newly written file is in
  // the listing, so keep_last bounds what survives on disk.
  auto snapshots = list_snapshots(directory_);
  const std::size_t keep = static_cast<std::size_t>(keep_last_);
  if (snapshots.size() > keep) {
    for (std::size_t i = 0; i + keep < snapshots.size(); ++i) {
      std::error_code ec;
      std::filesystem::remove(snapshots[i].second, ec);
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.counter("ckpt.writes").add(1);
  registry.counter("ckpt.bytes").add(static_cast<std::int64_t>(file_bytes));
  registry.histogram("ckpt.write_seconds").observe(timer.seconds());
  SGNN_LOG_DEBUG << "checkpoint step " << step << " -> " << path << " ("
                 << file_bytes << " bytes)";
  return path;
}

std::optional<CheckpointManager::Loaded> CheckpointManager::load_latest(
    const std::string& location) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> candidates;
  if (std::filesystem::is_directory(location)) {
    candidates = list_snapshots(location);
  } else if (std::filesystem::is_regular_file(location)) {
    const auto step =
        parse_snapshot_step(std::filesystem::path(location).filename().string());
    candidates.emplace_back(step.value_or(0), location);
  }
  // Newest first; fall back across corrupt files to the last good one.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    try {
      Loaded loaded;
      loaded.payload = read_snapshot_file(it->second.string());
      loaded.step = it->first;
      loaded.path = it->second.string();
      registry.counter("ckpt.restores").add(1);
      return loaded;
    } catch (const Error& error) {
      registry.counter("ckpt.corrupt_skipped").add(1);
      SGNN_LOG_WARN << "skipping unreadable checkpoint " << it->second
                    << ": " << error.what();
    }
  }
  return std::nullopt;
}

}  // namespace sgnn::ckpt
