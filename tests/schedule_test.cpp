// Joint L2 gradient clipping, as Adam applies it before its update
// (Adam::set_max_grad_norm).

#include <gtest/gtest.h>

#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/optim.hpp"

namespace sgnn {
namespace {

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
