#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace sgnn {

/// What a tensor allocation *is* from the training algorithm's point of
/// view. This is the axis along which the paper's Fig. 6 breaks down peak
/// memory (activations / weights / gradients / optimizer states).
enum class MemCategory : int {
  kActivation = 0,   ///< forward intermediates kept for backward
  kWeight = 1,       ///< model parameters
  kGradient = 2,     ///< parameter gradients
  kOptimizerState = 3,  ///< Adam moments, ZeRO shards
  kWorkspace = 4,    ///< transient scratch (batch and graph buffers)
  kCount = 5,
};

const char* mem_category_name(MemCategory category);

/// Which stage of a training step is executing. Peak memory attribution by
/// phase is what lets the benches show the paper's observation that the
/// vanilla peak occurs at the start of the backward pass and shifts to the
/// weight-update phase once activation checkpointing is enabled.
enum class TrainPhase : int {
  kIdle = 0,
  kForward = 1,
  kBackward = 2,
  kOptimizer = 3,
  kCount = 4,
};

const char* train_phase_name(TrainPhase phase);

/// Per-category byte counts; used both for live usage and peak snapshots.
struct MemBreakdown {
  std::array<std::int64_t, static_cast<int>(MemCategory::kCount)> bytes{};

  std::int64_t total() const {
    std::int64_t t = 0;
    for (const auto b : bytes) t += b;
    return t;
  }
  std::int64_t of(MemCategory c) const { return bytes[static_cast<std::size_t>(c)]; }
  double fraction(MemCategory c) const {
    const auto t = total();
    return t == 0 ? 0.0 : static_cast<double>(of(c)) / static_cast<double>(t);
  }
};

/// Global accounting of every tensor-storage allocation, tagged by
/// category and phase. Thread-safe; the thread-local category/phase scopes
/// make tagging zero-boilerplate at call sites (see ScopedMemCategory /
/// ScopedTrainPhase).
///
/// This instrument stands in for CUDA memory profiling in the paper: the
/// ratios it reports (e.g. "activations are 76.9% of the vanilla peak") are
/// algorithmic properties of the training loop and carry over directly.
class MemoryTracker {
 public:
  static MemoryTracker& instance();

  void on_alloc(std::size_t bytes, MemCategory category);
  void on_free(std::size_t bytes, MemCategory category);

  /// Current live bytes, per category.
  MemBreakdown live() const;
  /// Breakdown captured at the moment of the highest total usage since the
  /// last reset_peak().
  MemBreakdown peak() const;
  /// Phase during which the peak was observed.
  TrainPhase peak_phase() const;
  std::int64_t peak_total() const;

  /// Highest total usage observed WHILE a given phase was active — the
  /// per-stage profile of the paper's Fig. 6(a) (forward / backward /
  /// weight-update peaks).
  std::int64_t peak_during(TrainPhase phase) const;
  /// Counts the current live total toward the calling thread's phase peak:
  /// allocations are the only other samples, so a phase that allocates
  /// nothing (the in-place optimizer update) calls this to be seen.
  void sample_phase();

  /// Forgets the recorded peak but keeps live counters (which must track
  /// real allocations at all times).
  void reset_peak();

  static MemCategory current_category();
  static void set_current_category(MemCategory category);
  static TrainPhase current_phase();
  static void set_current_phase(TrainPhase phase);

 private:
  MemoryTracker() = default;

  mutable std::mutex mutex_;
  MemBreakdown live_;
  MemBreakdown peak_;
  TrainPhase peak_phase_ = TrainPhase::kIdle;
  std::array<std::int64_t, static_cast<std::size_t>(TrainPhase::kCount)>
      peak_by_phase_{};
};

/// RAII tag: tensor storage allocated inside the scope is accounted under
/// `category`.
class ScopedMemCategory {
 public:
  explicit ScopedMemCategory(MemCategory category)
      : previous_(MemoryTracker::current_category()) {
    MemoryTracker::set_current_category(category);
  }
  ~ScopedMemCategory() { MemoryTracker::set_current_category(previous_); }
  ScopedMemCategory(const ScopedMemCategory&) = delete;
  ScopedMemCategory& operator=(const ScopedMemCategory&) = delete;

 private:
  MemCategory previous_;
};

/// RAII tag: marks the executing training phase for peak attribution.
class ScopedTrainPhase {
 public:
  explicit ScopedTrainPhase(TrainPhase phase)
      : previous_(MemoryTracker::current_phase()) {
    MemoryTracker::set_current_phase(phase);
  }
  ~ScopedTrainPhase() { MemoryTracker::set_current_phase(previous_); }
  ScopedTrainPhase(const ScopedTrainPhase&) = delete;
  ScopedTrainPhase& operator=(const ScopedTrainPhase&) = delete;

 private:
  TrainPhase previous_;
};

}  // namespace sgnn
