#include "sgnn/tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

TEST(OpsTest, AddSameShape) {
  const Tensor a = Tensor::from_vector({1, 2, 3}, Shape{3});
  const Tensor b = Tensor::from_vector({10, 20, 30}, Shape{3});
  const auto c = (a + b).to_vector();
  EXPECT_EQ(c, (std::vector<real>{11, 22, 33}));
}

TEST(OpsTest, AddBroadcastRowVector) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor b = Tensor::from_vector({10, 20, 30}, Shape{3});
  const auto c = (a + b).to_vector();
  EXPECT_EQ(c, (std::vector<real>{11, 22, 33, 14, 25, 36}));
}

TEST(OpsTest, AddBroadcastColumnVector) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor b = Tensor::from_vector({100, 200}, Shape{2, 1});
  const auto c = (a + b).to_vector();
  EXPECT_EQ(c, (std::vector<real>{101, 102, 103, 204, 205, 206}));
}

std::vector<std::uint64_t> bit_pattern(const Tensor& t) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(t.numel()));
  std::memcpy(out.data(), t.data(), out.size() * sizeof(std::uint64_t));
  return out;
}

// Rank-2 row/column broadcasts take a row-and-column fast path in the
// forward, the broadcasting backward and reduce_to. The same data viewed
// as rank 3 takes the general strided loop, so the two must agree bit for
// bit on the output and both gradients.
TEST(OpsTest, RowColumnBroadcastFastPathsMatchStridedLoop) {
  constexpr std::int64_t m = 300;
  constexpr std::int64_t n = 17;
  Rng rng(21);
  const Tensor a = Tensor::randn(Shape{m, n}, rng);
  const Tensor grad_out = Tensor::randn(Shape{m, n}, rng);
  const std::vector<std::function<Tensor(const Tensor&, const Tensor&)>>
      ops = {[](const Tensor& x, const Tensor& y) { return add(x, y); },
             [](const Tensor& x, const Tensor& y) { return sub(x, y); },
             [](const Tensor& x, const Tensor& y) { return mul(x, y); },
             [](const Tensor& x, const Tensor& y) { return div(x, y); }};
  for (const Shape& b_shape : {Shape{m, 1}, Shape{1, n}, Shape{n}}) {
    const Tensor b = Tensor::uniform(b_shape, rng, 0.5, 2.0);
    for (const auto& op : ops) {
      const auto run = [&](bool rank3) {
        Tensor x = a.clone().set_requires_grad(true);
        Tensor y = b.clone().set_requires_grad(true);
        Tensor out =
            rank3 ? reshape(op(reshape(x, Shape{1, m, n}),
                               reshape(y, b_shape.rank() == 2
                                              ? Shape{1, b_shape.dim(0),
                                                      b_shape.dim(1)}
                                              : b_shape)),
                            Shape{m, n})
                  : op(x, y);
        out.backward(grad_out);
        return std::vector<std::vector<std::uint64_t>>{
            bit_pattern(out), bit_pattern(x.grad()), bit_pattern(y.grad())};
      };
      EXPECT_EQ(run(false), run(true)) << b_shape.to_string();
    }
  }
}

TEST(OpsTest, MulBroadcastScalarTensor) {
  const Tensor a = Tensor::from_vector({1, 2, 3}, Shape{3});
  const auto c = (a * Tensor::scalar(4.0)).to_vector();
  EXPECT_EQ(c, (std::vector<real>{4, 8, 12}));
}

TEST(OpsTest, IncompatibleBroadcastThrows) {
  const Tensor a = Tensor::zeros(Shape{2, 3});
  const Tensor b = Tensor::zeros(Shape{2, 4});
  EXPECT_THROW(a + b, Error);
}

TEST(OpsTest, DivComputesQuotient) {
  const Tensor a = Tensor::from_vector({8, 27}, Shape{2});
  const Tensor b = Tensor::from_vector({2, 3}, Shape{2});
  const auto c = div(a, b).to_vector();
  EXPECT_DOUBLE_EQ(c[0], 4);
  EXPECT_DOUBLE_EQ(c[1], 9);
}

TEST(OpsTest, UnaryForwardValues) {
  const Tensor x = Tensor::from_vector({-2, 0, 3}, Shape{3});
  EXPECT_EQ(relu(x).to_vector(), (std::vector<real>{0, 0, 3}));
  EXPECT_EQ(neg(x).to_vector(), (std::vector<real>{2, 0, -3}));
  EXPECT_EQ(abs_op(x).to_vector(), (std::vector<real>{2, 0, 3}));
  EXPECT_EQ(square(x).to_vector(), (std::vector<real>{4, 0, 9}));
  EXPECT_EQ(clamp_min(x, 1.0).to_vector(), (std::vector<real>{1, 1, 3}));
}

TEST(OpsTest, SigmoidAndSiluValues) {
  const Tensor x = Tensor::scalar(0.0);
  EXPECT_DOUBLE_EQ(sigmoid(x).item(), 0.5);
  EXPECT_DOUBLE_EQ(silu(x).item(), 0.0);
  const Tensor y = Tensor::scalar(100.0);
  EXPECT_NEAR(sigmoid(y).item(), 1.0, 1e-12);
  EXPECT_NEAR(silu(y).item(), 100.0, 1e-12);
}

TEST(OpsTest, SoftplusIsStableForLargeInputs) {
  EXPECT_NEAR(softplus(Tensor::scalar(500.0)).item(), 500.0, 1e-9);
  EXPECT_NEAR(softplus(Tensor::scalar(-500.0)).item(), 0.0, 1e-9);
  EXPECT_NEAR(softplus(Tensor::scalar(0.0)).item(), std::log(2.0), 1e-12);
}

TEST(OpsTest, MatmulKnownProduct) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor b = Tensor::from_vector({5, 6, 7, 8}, Shape{2, 2});
  const auto c = matmul(a, b).to_vector();
  EXPECT_EQ(c, (std::vector<real>{19, 22, 43, 50}));
}

TEST(OpsTest, MatmulRectangular) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor b = Tensor::from_vector({1, 0, 0, 1, 1, 1}, Shape{3, 2});
  const auto c = matmul(a, b).to_vector();
  EXPECT_EQ(c, (std::vector<real>{4, 5, 10, 11}));
}

TEST(OpsTest, MatmulDimensionMismatchThrows) {
  EXPECT_THROW(matmul(Tensor::zeros(Shape{2, 3}), Tensor::zeros(Shape{2, 3})),
               Error);
}

TEST(OpsTest, TransposeSwapsAxes) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor t = transpose(a);
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_EQ(t.to_vector(), (std::vector<real>{1, 4, 2, 5, 3, 6}));
}

TEST(OpsTest, SumAllAndMeanAll) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  EXPECT_DOUBLE_EQ(sum(a).item(), 10.0);
  EXPECT_DOUBLE_EQ(mean(a).item(), 2.5);
}

TEST(OpsTest, SumAlongAxes) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  EXPECT_EQ(sum(a, 0, false).to_vector(), (std::vector<real>{5, 7, 9}));
  EXPECT_EQ(sum(a, 1, false).to_vector(), (std::vector<real>{6, 15}));
  const Tensor keep = sum(a, 1, true);
  EXPECT_EQ(keep.shape(), Shape({2, 1}));
}

TEST(OpsTest, MeanAlongAxis) {
  const Tensor a = Tensor::from_vector({2, 4, 6, 8}, Shape{2, 2});
  EXPECT_EQ(mean(a, 0, false).to_vector(), (std::vector<real>{4, 6}));
}

TEST(OpsTest, ReshapePreservesData) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor r = reshape(a, Shape{3, 2});
  EXPECT_EQ(r.to_vector(), a.to_vector());
  EXPECT_THROW(reshape(a, Shape{4, 2}), Error);
}

TEST(OpsTest, ConcatAxis0) {
  const Tensor a = Tensor::from_vector({1, 2}, Shape{1, 2});
  const Tensor b = Tensor::from_vector({3, 4, 5, 6}, Shape{2, 2});
  const Tensor c = concat({a, b}, 0);
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_EQ(c.to_vector(), (std::vector<real>{1, 2, 3, 4, 5, 6}));
}

TEST(OpsTest, ConcatAxis1) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor b = Tensor::from_vector({5, 6}, Shape{2, 1});
  const Tensor c = concat({a, b}, 1);
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.to_vector(), (std::vector<real>{1, 2, 5, 3, 4, 6}));
}

TEST(OpsTest, ConcatShapeMismatchThrows) {
  EXPECT_THROW(
      concat({Tensor::zeros(Shape{2, 2}), Tensor::zeros(Shape{3, 3})}, 0),
      Error);
}

TEST(OpsTest, NarrowExtractsRange) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor n0 = narrow(a, 1, 1, 2);
  EXPECT_EQ(n0.shape(), Shape({2, 2}));
  EXPECT_EQ(n0.to_vector(), (std::vector<real>{2, 3, 5, 6}));
  const Tensor n1 = narrow(a, 0, 1, 1);
  EXPECT_EQ(n1.to_vector(), (std::vector<real>{4, 5, 6}));
  EXPECT_THROW(narrow(a, 1, 2, 2), Error);
}

TEST(OpsTest, IndexSelectRowsGathers) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{3, 2});
  const Tensor g = index_select_rows(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  EXPECT_EQ(g.to_vector(), (std::vector<real>{5, 6, 1, 2, 5, 6}));
  EXPECT_THROW(index_select_rows(a, {3}), Error);
}

TEST(OpsTest, ScatterAddRowsAggregates) {
  const Tensor src = Tensor::from_vector({1, 1, 2, 2, 4, 4}, Shape{3, 2});
  const Tensor out = scatter_add_rows(src, {1, 1, 0}, 2);
  EXPECT_EQ(out.shape(), Shape({2, 2}));
  EXPECT_EQ(out.to_vector(), (std::vector<real>{4, 4, 3, 3}));
  EXPECT_THROW(scatter_add_rows(src, {0, 1}, 2), Error);
  EXPECT_THROW(scatter_add_rows(src, {0, 1, 2}, 2), Error);
}

TEST(OpsTest, RowNormSquared) {
  const Tensor a = Tensor::from_vector({3, 4, 0, 5}, Shape{2, 2});
  const Tensor n = row_norm_squared(a);
  EXPECT_EQ(n.shape(), Shape({2, 1}));
  EXPECT_EQ(n.to_vector(), (std::vector<real>{25, 25}));
}

TEST(OpsTest, MseLossValue) {
  const Tensor p = Tensor::from_vector({1, 2}, Shape{2});
  const Tensor t = Tensor::from_vector({0, 4}, Shape{2});
  EXPECT_DOUBLE_EQ(mse_loss(p, t).item(), (1.0 + 4.0) / 2.0);
}

}  // namespace
}  // namespace sgnn
