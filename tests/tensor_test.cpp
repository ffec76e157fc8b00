#include "sgnn/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include "sgnn/tensor/ops.hpp"
#include "sgnn/tensor/param_arena.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {
namespace {

TEST(TensorTest, DefaultConstructedIsUndefined) {
  const Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.shape(), Error);
}

TEST(TensorTest, ZerosInitializesToZero) {
  const Tensor t = Tensor::zeros(Shape{2, 3});
  for (const auto v : t.to_vector()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(t.numel(), 6);
}

TEST(TensorTest, FullFillsValue) {
  const Tensor t = Tensor::full(Shape{4}, 2.5);
  for (const auto v : t.to_vector()) EXPECT_EQ(v, 2.5);
}

TEST(TensorTest, ScalarItemRoundTrip) {
  EXPECT_DOUBLE_EQ(Tensor::scalar(-3.25).item(), -3.25);
}

TEST(TensorTest, ItemOnNonScalarThrows) {
  EXPECT_THROW(Tensor::zeros(Shape{2}).item(), Error);
}

TEST(TensorTest, FromVectorPreservesOrder) {
  const Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(t.at(0, 2), 3);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 4);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 6);
}

TEST(TensorTest, FromVectorSizeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({1, 2, 3}, Shape{2, 2}), Error);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  Rng rng1(42);
  Rng rng2(42);
  const auto a = Tensor::randn(Shape{8}, rng1).to_vector();
  const auto b = Tensor::randn(Shape{8}, rng2).to_vector();
  EXPECT_EQ(a, b);
}

TEST(TensorTest, CopyAliasesStorage) {
  Tensor a = Tensor::zeros(Shape{3});
  const Tensor b = a;  // NOLINT: aliasing is the point
  a.data()[1] = 7.0;
  EXPECT_DOUBLE_EQ(b.to_vector()[1], 7.0);
}

TEST(TensorTest, CloneCopiesStorage) {
  Tensor a = Tensor::full(Shape{3}, 1.0);
  Tensor b = a.clone();
  b.data()[0] = 9.0;
  EXPECT_DOUBLE_EQ(a.to_vector()[0], 1.0);
}

TEST(TensorTest, DetachSharesDataButDropsGraph) {
  Tensor a = Tensor::ones(Shape{2}).set_requires_grad(true);
  const Tensor y = a * 2.0;
  ASSERT_TRUE(y.requires_grad());
  const Tensor d = y.detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.to_vector(), y.to_vector());
}

TEST(TensorTest, RequiresGradOnlyOnLeaves) {
  Tensor a = Tensor::ones(Shape{2}).set_requires_grad(true);
  Tensor y = a + a;
  EXPECT_FALSE(y.is_leaf());
  EXPECT_THROW(y.set_requires_grad(true), Error);
}

TEST(TensorTest, BackwardScalarChain) {
  Tensor x = Tensor::scalar(3.0).set_requires_grad(true);
  Tensor y = square(x) * 2.0;  // y = 2 x^2, dy/dx = 4x = 12
  y.backward();
  ASSERT_TRUE(x.grad().defined());
  EXPECT_DOUBLE_EQ(x.grad().item(), 12.0);
}

TEST(TensorTest, BackwardAccumulatesAcrossCalls) {
  Tensor x = Tensor::scalar(1.0).set_requires_grad(true);
  (x * 3.0).backward();
  (x * 4.0).backward();
  EXPECT_DOUBLE_EQ(x.grad().item(), 7.0);
}

TEST(TensorTest, ZeroGradClearsAccumulator) {
  Tensor x = Tensor::scalar(1.0).set_requires_grad(true);
  (x * 3.0).backward();
  x.zero_grad();
  EXPECT_FALSE(x.grad().defined());
  (x * 4.0).backward();
  EXPECT_DOUBLE_EQ(x.grad().item(), 4.0);
}

TEST(TensorTest, BackwardDiamondAccumulatesBothPaths) {
  // y = x*x + x*x uses x through two paths sharing a node.
  Tensor x = Tensor::scalar(2.0).set_requires_grad(true);
  Tensor s = square(x);
  Tensor y = s + s;  // y = 2x^2, dy/dx = 4x = 8
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad().item(), 8.0);
}

TEST(TensorTest, BackwardSameTensorBothOperands) {
  // add's backward returns the identical buffer twice; accumulation must
  // not corrupt it (regression test for in-place aliasing).
  Tensor x = Tensor::scalar(5.0).set_requires_grad(true);
  Tensor y = x + x;  // dy/dx = 2
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad().item(), 2.0);
}

TEST(TensorTest, BackwardOnNonScalarRequiresGradOutput) {
  Tensor x = Tensor::ones(Shape{3}).set_requires_grad(true);
  Tensor y = x * 2.0;
  EXPECT_THROW(y.backward(), Error);
  y.backward(Tensor::from_vector({1, 10, 100}, Shape{3}));
  const auto g = x.grad().to_vector();
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 20.0);
  EXPECT_DOUBLE_EQ(g[2], 200.0);
}

TEST(TensorTest, NoGradGuardSuppressesGraph) {
  Tensor x = Tensor::scalar(1.0).set_requires_grad(true);
  autograd::NoGradGuard guard;
  Tensor y = x * 2.0;
  EXPECT_FALSE(y.requires_grad());
}

TEST(TensorTest, EnableGradGuardRestoresRecording) {
  Tensor x = Tensor::scalar(1.0).set_requires_grad(true);
  autograd::NoGradGuard no_grad;
  {
    autograd::EnableGradGuard enable;
    EXPECT_TRUE((x * 2.0).requires_grad());
  }
  EXPECT_FALSE((x * 2.0).requires_grad());
}

TEST(TensorTest, GraphIsConsumedByBackward) {
  Tensor x = Tensor::scalar(2.0).set_requires_grad(true);
  Tensor y = square(x);
  y.backward();
  // Second backward on the consumed graph must fail loudly, not silently
  // produce wrong gradients.
  EXPECT_THROW(y.backward(), Error);
}

TEST(TensorTest, ToStringRendersShapeAndValues) {
  EXPECT_EQ(Tensor().to_string(), "Tensor(undefined)");
  const Tensor v = Tensor::from_vector({1, 2, 3}, Shape{3});
  EXPECT_EQ(v.to_string(), "Tensor[3] {1, 2, 3}");
  const Tensor m = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  EXPECT_EQ(m.to_string(), "Tensor[2, 2] {{1, 2}, {3, 4}}");
}

TEST(TensorTest, ToStringElidesLargeTensors) {
  const Tensor big = Tensor::ones(Shape{100});
  const std::string s = big.to_string(4);
  EXPECT_NE(s.find("... (96 more)"), std::string::npos);
}

TEST(TensorTest, LongChainBackwardDoesNotOverflowStack) {
  Tensor x = Tensor::scalar(1.0).set_requires_grad(true);
  Tensor y = x;
  for (int i = 0; i < 20000; ++i) y = y + 0.0;
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad().item(), 1.0);
}

// -- parameter arena ----------------------------------------------------------

/// Two parameters of 12 and 7 elements holding 0..18 in registration order.
std::vector<Tensor> counting_parameters() {
  std::vector<real> a(12);
  std::vector<real> b(7);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<real>(i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<real>(12 + i);
  return {Tensor::from_vector(a, Shape{3, 4}).set_requires_grad(true),
          Tensor::from_vector(b, Shape{7}).set_requires_grad(true)};
}

TEST(ParamArenaTest, ViewsAliasOneBufferInRegistrationOrder) {
  std::vector<Tensor> params = counting_parameters();
  const Tensor alias = params[1];  // packing rebinds every alias
  const ParamArena arena(params);
  ASSERT_EQ(arena.size(), 19u);
  EXPECT_EQ(arena.offset(1), 12u);
  EXPECT_EQ(params[0].data(), arena.values().data());
  EXPECT_EQ(params[1].data(), arena.values().data() + 12);
  EXPECT_EQ(alias.data(), params[1].data());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.values()[i], static_cast<real>(i));
  }
  // Backward accumulates in place into each parameter's gradient slice.
  (sum(params[0] * 2.0) + sum(params[1] * 3.0)).backward();
  EXPECT_EQ(params[0].grad().data(), arena.grads().data());
  EXPECT_EQ(params[1].grad().data(), arena.grads().data() + 12);
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.grads()[i], i < 12 ? 2.0 : 3.0);
  }
}

TEST(ParamArenaTest, PackingKeepsExistingGradients) {
  std::vector<Tensor> params = counting_parameters();
  sum(params[1] * 5.0).backward();
  const ParamArena arena(params);
  EXPECT_FALSE(params[0].grad().defined());
  ASSERT_TRUE(params[1].grad().defined());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.grads()[i], i < 12 ? 0.0 : 5.0);
  }
}

TEST(ParamArenaTest, ZeroGradClearsTheBufferAndTheFlags) {
  std::vector<Tensor> params = counting_parameters();
  ParamArena arena(params);
  sum(params[0]).backward();
  arena.zero_grad();
  EXPECT_FALSE(params[0].grad().defined());
  for (const real g : arena.grads()) EXPECT_EQ(g, 0.0);
  // A parameter's own zero_grad clears only its slice.
  (sum(params[0]) + sum(params[1])).backward();
  params[1].zero_grad();
  EXPECT_TRUE(params[0].grad().defined());
  EXPECT_FALSE(params[1].grad().defined());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.grads()[i], i < 12 ? 1.0 : 0.0);
  }
}

TEST(ParamArenaTest, DetachAndCloneOfAViewTouchOnlyItsRange) {
  std::vector<Tensor> params = counting_parameters();
  const ParamArena arena(params);
  Tensor detached = params[1].detach();
  EXPECT_EQ(detached.data(), params[1].data());
  EXPECT_EQ(detached.to_vector(), params[1].to_vector());
  detached.data()[0] = -1.0;
  Tensor cloned = params[1].clone();
  EXPECT_EQ(cloned.to_vector(), params[1].to_vector());
  cloned.data()[1] = -2.0;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.values()[i], i == 12 ? -1.0 : static_cast<real>(i));
  }
}

TEST(ParamArenaTest, AnArenaIsAdoptedNotRepacked) {
  std::vector<Tensor> params = counting_parameters();
  const ParamArena first(params);
  const ParamArena second(params);
  EXPECT_EQ(second.values().data(), first.values().data());
  EXPECT_EQ(second.grads().data(), first.grads().data());
  // A list in another order is a different layout and gets its own arena.
  const ParamArena reversed({params[1], params[0]});
  EXPECT_NE(reversed.values().data(), first.values().data());
  EXPECT_EQ(params[1].data(), reversed.values().data());
}

}  // namespace
}  // namespace sgnn
