#include "sgnn/train/schedule.hpp"

#include <gtest/gtest.h>

#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/optim.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

TEST(ScheduleTest, ConstantIsConstant) {
  const LrSchedule s = LrSchedule::constant(1e-3);
  EXPECT_DOUBLE_EQ(s.at_step(0), 1e-3);
  EXPECT_DOUBLE_EQ(s.at_step(10000), 1e-3);
}

TEST(ScheduleTest, ExponentialDecaysPerEpoch) {
  const LrSchedule s = LrSchedule::exponential(1.0, 0.5, 10);
  EXPECT_DOUBLE_EQ(s.at_step(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at_step(9), 1.0);    // still epoch 0
  EXPECT_DOUBLE_EQ(s.at_step(10), 0.5);   // epoch 1
  EXPECT_DOUBLE_EQ(s.at_step(25), 0.25);  // epoch 2
}

TEST(ScheduleTest, WarmupRampsLinearly) {
  const LrSchedule s = LrSchedule::warmup_cosine(1.0, 10, 100);
  EXPECT_NEAR(s.at_step(0), 0.1, 1e-12);
  EXPECT_NEAR(s.at_step(4), 0.5, 1e-12);
  EXPECT_NEAR(s.at_step(9), 1.0, 1e-12);
}

TEST(ScheduleTest, CosineDecaysToFinalFraction) {
  const LrSchedule s = LrSchedule::warmup_cosine(1.0, 10, 110, 0.1);
  // Midpoint of the cosine arc: halfway between peak and floor.
  EXPECT_NEAR(s.at_step(60), 0.55, 1e-9);
  EXPECT_NEAR(s.at_step(110), 0.1, 1e-12);
  EXPECT_NEAR(s.at_step(100000), 0.1, 1e-12);  // clamped
}

TEST(ScheduleTest, MonotoneAfterWarmup) {
  const LrSchedule s = LrSchedule::warmup_cosine(3e-3, 20, 200);
  double previous = s.at_step(20);
  for (std::int64_t step = 21; step <= 200; ++step) {
    const double lr = s.at_step(step);
    EXPECT_LE(lr, previous + 1e-15) << "step " << step;
    previous = lr;
  }
}

TEST(ScheduleTest, RejectsInvalidConfigs) {
  EXPECT_THROW(LrSchedule::constant(0.0), Error);
  EXPECT_THROW(LrSchedule::exponential(1.0, 1.5, 10), Error);
  EXPECT_THROW(LrSchedule::exponential(1.0, 0.5, 0), Error);
  EXPECT_THROW(LrSchedule::warmup_cosine(1.0, 100, 50), Error);
  EXPECT_THROW(LrSchedule::constant(1e-3).at_step(-1), Error);
}

TEST(ClipGradTest, ScalesDownLargeGradients) {
  Tensor a = Tensor::from_vector({3.0, 0.0}, Shape{2}).set_requires_grad(true);
  Tensor b = Tensor::from_vector({0.0, 4.0}, Shape{2}).set_requires_grad(true);
  // Gradients: d/da sum(a*a) = 2a = (6, 0); d/db = (0, 8). Joint norm = 10.
  Adam adam({a, b}, {});
  adam.set_max_grad_norm(5.0);
  (sum(square(a)) + sum(square(b))).backward();
  const double norm = adam.step();
  EXPECT_NEAR(norm, 10.0, 1e-12);
  EXPECT_NEAR(a.grad().to_vector()[0], 3.0, 1e-12);  // 6 * (5/10)
  EXPECT_NEAR(b.grad().to_vector()[1], 4.0, 1e-12);  // 8 * (5/10)
}

TEST(ClipGradTest, LeavesSmallGradientsUntouched) {
  Tensor a = Tensor::scalar(1.0).set_requires_grad(true);
  Adam adam({a}, {});
  adam.set_max_grad_norm(100.0);
  square(a).backward();  // grad = 2
  const double norm = adam.step();
  EXPECT_NEAR(norm, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.grad().item(), 2.0);
}

TEST(ClipGradTest, IgnoresUndefinedGradients) {
  Tensor with = Tensor::scalar(1.0).set_requires_grad(true);
  Tensor without = Tensor::scalar(1.0).set_requires_grad(true);
  Adam adam({with, without}, {});
  adam.set_max_grad_norm(1.0);
  square(with).backward();
  EXPECT_NO_THROW(adam.step());
  EXPECT_FALSE(without.grad().defined());
}

}  // namespace
}  // namespace sgnn
