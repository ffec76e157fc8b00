#include "sgnn/train/schedule.hpp"

#include <cmath>

#include "sgnn/util/error.hpp"

namespace sgnn {

LrSchedule LrSchedule::constant(double learning_rate) {
  SGNN_CHECK(learning_rate > 0, "learning rate must be positive");
  LrSchedule s;
  s.kind_ = Kind::kConstant;
  s.base_ = learning_rate;
  return s;
}

LrSchedule LrSchedule::exponential(double learning_rate, double decay,
                                   std::int64_t steps_per_epoch) {
  SGNN_CHECK(learning_rate > 0 && decay > 0 && decay <= 1,
             "invalid exponential schedule");
  SGNN_CHECK(steps_per_epoch > 0, "steps_per_epoch must be positive");
  LrSchedule s;
  s.kind_ = Kind::kExponential;
  s.base_ = learning_rate;
  s.decay_ = decay;
  s.steps_per_epoch_ = steps_per_epoch;
  return s;
}

LrSchedule LrSchedule::warmup_cosine(double peak, std::int64_t warmup_steps,
                                     std::int64_t total_steps,
                                     double final_fraction) {
  SGNN_CHECK(peak > 0, "peak learning rate must be positive");
  SGNN_CHECK(warmup_steps >= 0 && total_steps > warmup_steps,
             "invalid warmup/total step counts");
  SGNN_CHECK(final_fraction >= 0 && final_fraction <= 1,
             "final fraction must be in [0, 1]");
  LrSchedule s;
  s.kind_ = Kind::kWarmupCosine;
  s.base_ = peak;
  s.warmup_steps_ = warmup_steps;
  s.total_steps_ = total_steps;
  s.final_fraction_ = final_fraction;
  return s;
}

double LrSchedule::at_step(std::int64_t step) const {
  SGNN_CHECK(step >= 0, "negative step");
  switch (kind_) {
    case Kind::kConstant:
      return base_;
    case Kind::kExponential:
      return base_ * std::pow(decay_, static_cast<double>(
                                          step / steps_per_epoch_));
    case Kind::kWarmupCosine: {
      if (warmup_steps_ > 0 && step < warmup_steps_) {
        // Linear ramp, starting one increment above zero.
        return base_ * static_cast<double>(step + 1) /
               static_cast<double>(warmup_steps_);
      }
      const double floor = base_ * final_fraction_;
      if (step >= total_steps_) return floor;
      const double progress =
          static_cast<double>(step - warmup_steps_) /
          static_cast<double>(total_steps_ - warmup_steps_);
      return floor +
             (base_ - floor) * 0.5 * (1.0 + std::cos(M_PI * progress));
    }
  }
  throw Error("unknown schedule kind");
}

}  // namespace sgnn
