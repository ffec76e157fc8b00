#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "sgnn/store/snapshot.hpp"

namespace sgnn::ckpt {

/// Crash-safe training-state checkpointing policy on top of the snapshot
/// container (sgnn/store/snapshot.hpp). A checkpoint is a snapshot holding
/// the model.* sections of a model file plus the optimizer's moments, step
/// count and learning rate and the sampler's RNG state and epoch position,
/// so every checkpoint is also a loadable model file. The trainers assemble
/// and consume the sections; this layer owns step-stamped naming, retention
/// and recovery of the last-known-good checkpoint, and the fault injection
/// the crash tests use. See docs/fault-tolerance.md for the full protocol.

/// Trainer-facing knobs; embedded in TrainOptions / DistTrainOptions.
struct CheckpointOptions {
  /// Write a snapshot every N optimizer steps; 0 disables checkpointing.
  std::int64_t every_steps = 0;
  /// Directory snapshots are written to (created on first save).
  std::string directory;
  /// Verified snapshots retained on disk. At least 2, so a corrupted newest
  /// checkpoint always leaves a previous good one to fall back on.
  int keep_last = 2;
  /// Directory (or single snapshot file) to resume from; empty starts
  /// fresh. Resume restores training bit-identically: train N steps is
  /// indistinguishable from train k, crash, resume, train N-k.
  std::string resume_from;
  /// Fault injection for the crash/restart tests: the trainer throws
  /// SimulatedCrash once this many optimizer steps have completed
  /// (after the step's checkpoint hook). Negative disables.
  std::int64_t crash_after_step = -1;
  /// Fault injection INSIDE the overlap window: during optimizer step N
  /// (1-based), SimulatedCrash is thrown after every gradient bucket has
  /// been posted but before any is drained — no parameter or moment has
  /// been touched, so resume must be bit-identical (the crash-during-
  /// overlap checkpoint test). Every rank throws at the same step, so no
  /// rank is stranded in a collective. Only meaningful with bucketing on
  /// (DistTrainOptions.bucket_bytes > 0). Non-positive disables.
  std::int64_t crash_in_overlap_step = -1;
};

/// Thrown by the trainers' fault-injection hook (CheckpointOptions::
/// crash_after_step). Deliberately NOT an sgnn::Error: a simulated crash is
/// not a data/precondition failure, and corruption tests asserting on Error
/// must not conflate the two.
class SimulatedCrash : public std::runtime_error {
 public:
  explicit SimulatedCrash(std::int64_t step)
      : std::runtime_error("simulated crash after step " +
                           std::to_string(step)),
        step_(step) {}
  std::int64_t step() const { return step_; }

 private:
  std::int64_t step_ = 0;
};

/// Throws SimulatedCrash when `completed_steps` reaches the configured
/// crash point. Called by both trainers right after their checkpoint hook.
inline void maybe_crash(const CheckpointOptions& options,
                        std::int64_t completed_steps) {
  if (options.crash_after_step >= 0 &&
      completed_steps >= options.crash_after_step) {
    throw SimulatedCrash(completed_steps);
  }
}

/// Owns a checkpoint directory: writes step-stamped snapshots atomically,
/// prunes old ones (keeping `keep_last` verified files), and recovers the
/// newest readable snapshot, skipping corrupt candidates. Obs metrics:
/// ckpt.writes / ckpt.bytes / ckpt.write_seconds on save,
/// ckpt.restores / ckpt.corrupt_skipped on load.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string directory, int keep_last = 2);

  const std::string& directory() const { return directory_; }

  /// Serializes + writes `payload` as the checkpoint for (1-based)
  /// completed step `step`; applies retention. Returns the final path.
  std::string save(std::uint64_t step, const std::string& payload);

  struct Loaded {
    std::uint64_t step = 0;  ///< parsed from the file name
    std::string payload;
    std::string path;
  };

  /// Newest verified snapshot under `location` — a checkpoint directory or
  /// a single snapshot file. Candidates that fail verification (truncated,
  /// bit-flipped, torn) are skipped with a warning, falling back to the
  /// next older checkpoint. nullopt when nothing readable exists.
  static std::optional<Loaded> load_latest(const std::string& location);

 private:
  std::string directory_;
  int keep_last_;
};

}  // namespace sgnn::ckpt
