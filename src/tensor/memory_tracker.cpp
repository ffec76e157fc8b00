#include "sgnn/tensor/memory_tracker.hpp"

#include <algorithm>

#include "sgnn/util/error.hpp"

namespace sgnn {
namespace {

thread_local MemCategory t_category = MemCategory::kActivation;
thread_local TrainPhase t_phase = TrainPhase::kIdle;

}  // namespace

const char* mem_category_name(MemCategory category) {
  switch (category) {
    case MemCategory::kActivation: return "activations";
    case MemCategory::kWeight: return "weights";
    case MemCategory::kGradient: return "gradients";
    case MemCategory::kOptimizerState: return "optimizer states";
    case MemCategory::kWorkspace: return "workspace";
    case MemCategory::kCount: break;
  }
  return "?";
}

const char* train_phase_name(TrainPhase phase) {
  switch (phase) {
    case TrainPhase::kIdle: return "idle";
    case TrainPhase::kForward: return "forward";
    case TrainPhase::kBackward: return "backward";
    case TrainPhase::kOptimizer: return "optimizer (weight update)";
    case TrainPhase::kCount: break;
  }
  return "?";
}

MemoryTracker& MemoryTracker::instance() {
  static MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::on_alloc(std::size_t bytes, MemCategory category) {
  const std::lock_guard<std::mutex> lock(mutex_);
  live_.bytes[static_cast<std::size_t>(category)] +=
      static_cast<std::int64_t>(bytes);
  const std::int64_t total = live_.total();
  if (total > peak_.total()) {
    peak_ = live_;
    peak_phase_ = t_phase;
  }
  auto& phase_peak = peak_by_phase_[static_cast<std::size_t>(t_phase)];
  phase_peak = std::max(phase_peak, total);
}

void MemoryTracker::on_free(std::size_t bytes, MemCategory category) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& counter = live_.bytes[static_cast<std::size_t>(category)];
  counter -= static_cast<std::int64_t>(bytes);
  SGNN_DCHECK(counter >= 0, "memory tracker underflow for category "
                                << mem_category_name(category));
}

MemBreakdown MemoryTracker::live() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

MemBreakdown MemoryTracker::peak() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

TrainPhase MemoryTracker::peak_phase() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_phase_;
}

std::int64_t MemoryTracker::peak_total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_.total();
}

void MemoryTracker::sample_phase() {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& phase_peak = peak_by_phase_[static_cast<std::size_t>(t_phase)];
  phase_peak = std::max(phase_peak, live_.total());
}

std::int64_t MemoryTracker::peak_during(TrainPhase phase) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_by_phase_[static_cast<std::size_t>(phase)];
}

void MemoryTracker::reset_peak() {
  const std::lock_guard<std::mutex> lock(mutex_);
  peak_ = live_;
  peak_phase_ = t_phase;
  peak_by_phase_.fill(0);
  peak_by_phase_[static_cast<std::size_t>(t_phase)] = live_.total();
}

MemCategory MemoryTracker::current_category() { return t_category; }
void MemoryTracker::set_current_category(MemCategory category) {
  t_category = category;
}
TrainPhase MemoryTracker::current_phase() { return t_phase; }
void MemoryTracker::set_current_phase(TrainPhase phase) { t_phase = phase; }

}  // namespace sgnn
