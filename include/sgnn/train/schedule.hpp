#pragma once

#include <cstdint>

namespace sgnn {

/// Step-based learning-rate schedules — the LLM-style training recipes the
/// paper's infrastructure section imports (warmup + decay). Pure functions
/// of the step index, so distributed replicas stay in lockstep for free.
class LrSchedule {
 public:
  /// lr(step) = lr.
  static LrSchedule constant(double learning_rate);

  /// lr decays by `decay` every `steps_per_epoch` steps.
  static LrSchedule exponential(double learning_rate, double decay,
                                std::int64_t steps_per_epoch);

  /// Linear warmup to `peak` over `warmup_steps`, then cosine decay to
  /// `final_fraction * peak` at `total_steps` (clamped thereafter).
  static LrSchedule warmup_cosine(double peak, std::int64_t warmup_steps,
                                  std::int64_t total_steps,
                                  double final_fraction = 0.1);

  double at_step(std::int64_t step) const;

 private:
  enum class Kind { kConstant, kExponential, kWarmupCosine };
  Kind kind_ = Kind::kConstant;
  double base_ = 1e-3;
  double decay_ = 1.0;
  double final_fraction_ = 0.1;
  std::int64_t warmup_steps_ = 0;
  std::int64_t total_steps_ = 1;
  std::int64_t steps_per_epoch_ = 1;
};

}  // namespace sgnn
