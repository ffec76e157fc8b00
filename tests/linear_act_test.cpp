// linear_act, the fused Linear op act(x W + b): bit-identity with the
// unfused act(add(matmul(x, W), b)) chain on the forward output and on dx,
// dW and db, across activations, bias on/off, both backends, both compute
// dtypes, 1 and 4 pool lanes and edge shapes; plus its tape and memory
// promises (no node or saved buffer without grad, no more activation bytes
// than the chain, only dx when the parameters are frozen).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {
namespace {

constexpr Activation kActivations[] = {Activation::kNone, Activation::kReLU,
                                       Activation::kSiLU, Activation::kTanh};

const char* activation_name(Activation activation) {
  switch (activation) {
    case Activation::kNone: return "none";
    case Activation::kReLU: return "relu";
    case Activation::kSiLU: return "silu";
    case Activation::kTanh: return "tanh";
  }
  return "?";
}

/// The composition linear_act replaces.
Tensor unfused(const Tensor& x, const Tensor& w, const Tensor& b,
               Activation activation) {
  Tensor v = matmul(x, w);
  if (b.defined()) v = add(v, b);
  switch (activation) {
    case Activation::kNone: return v;
    case Activation::kReLU: return relu(v);
    case Activation::kSiLU: return silu(v);
    case Activation::kTanh: return tanh_op(v);
  }
  return v;
}

/// Bit patterns, so -0 vs +0 and NaN payloads count as differences.
std::vector<std::uint64_t> bits(const Tensor& t) {
  if (!t.defined() || t.numel() == 0) return {};
  std::vector<std::uint64_t> out(static_cast<std::size_t>(t.numel()));
  std::memcpy(out.data(), t.data(), out.size() * sizeof(std::uint64_t));
  return out;
}

std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::simd_available()) backends.push_back(kernels::Backend::kSimd);
  return backends;
}

struct Operands {
  Tensor x, w, b, grad_out;
};

/// Fresh leaves with values on both sides of zero; row 0 of x is zero so
/// the pre-activation there is the bias alone (ReLU's kink, exact zeros).
Operands make_operands(std::int64_t m, std::int64_t k, std::int64_t n,
                       bool bias, std::uint64_t seed) {
  Rng rng(seed);
  Operands o;
  o.x = Tensor::randn(Shape{m, k}, rng, 1.5);
  for (std::int64_t j = 0; m > 0 && j < k; ++j) o.x.data()[j] = 0;
  o.w = Tensor::randn(Shape{k, n}, rng, 0.7);
  if (bias) o.b = Tensor::randn(Shape{1, n}, rng, 0.5);
  o.grad_out = Tensor::randn(Shape{m, n}, rng, 1.0);
  o.x.set_requires_grad(true);
  o.w.set_requires_grad(true);
  if (bias) o.b.set_requires_grad(true);
  return o;
}

struct Result {
  std::vector<std::uint64_t> out, dx, dw, db;
};

template <typename Op>
Result run(const Operands& o, Op op) {
  Operands c = o;  // same values, fresh grad buffers
  c.x = o.x.clone().set_requires_grad(o.x.requires_grad());
  c.w = o.w.clone().set_requires_grad(o.w.requires_grad());
  if (o.b.defined()) c.b = o.b.clone().set_requires_grad(o.b.requires_grad());
  Tensor out = op(c.x, c.w, c.b);
  Result r;
  r.out = bits(out);
  out.backward(c.grad_out);
  r.dx = bits(c.x.grad());
  r.dw = bits(c.w.grad());
  if (c.b.defined()) r.db = bits(c.b.grad());
  return r;
}

void expect_parity(const Operands& o, Activation activation,
                   const std::string& where) {
  const Result fused = run(o, [&](const Tensor& x, const Tensor& w,
                                  const Tensor& b) {
    return linear_act(x, w, b, activation);
  });
  const Result chain = run(o, [&](const Tensor& x, const Tensor& w,
                                  const Tensor& b) {
    return unfused(x, w, b, activation);
  });
  EXPECT_EQ(fused.out, chain.out) << where << " forward";
  EXPECT_EQ(fused.dx, chain.dx) << where << " dx";
  EXPECT_EQ(fused.dw, chain.dw) << where << " dW";
  EXPECT_EQ(fused.db, chain.db) << where << " db";
}

class LinearActTest : public ::testing::Test {
 protected:
  void SetUp() override { lanes_ = ThreadPool::instance().size(); }
  void TearDown() override { ThreadPool::instance().resize(lanes_); }

 private:
  int lanes_ = 1;
};

TEST_F(LinearActTest, BitIdenticalToUnfusedChain) {
  constexpr std::int64_t kK = 5;
  for (const auto backend : available_backends()) {
    const kernels::ScopedBackend scoped_backend(backend);
    for (const auto dtype :
         {kernels::ComputeDtype::kFloat64, kernels::ComputeDtype::kFloat32}) {
      const kernels::ScopedComputeDtype scoped_dtype(dtype);
      for (const int lanes : {1, 4}) {
        ThreadPool::instance().resize(lanes);
        for (const std::int64_t m : {1, 7, 300}) {
          for (const std::int64_t n : {1, 3, 16}) {
            for (const bool bias : {false, true}) {
              const Operands o = make_operands(
                  m, kK, n, bias, static_cast<std::uint64_t>(m * 31 + n));
              for (const auto activation : kActivations) {
                expect_parity(
                    o, activation,
                    std::string(kernels::backend_name(backend)) + "/" +
                        kernels::dtype_name(dtype) + "/lanes=" +
                        std::to_string(lanes) + " m=" + std::to_string(m) +
                        " n=" + std::to_string(n) +
                        (bias ? " bias " : " no-bias ") +
                        activation_name(activation));
              }
            }
          }
        }
      }
    }
  }
}

// Shapes big enough that the forward runs several matmul row bands and the
// backward several column chunks, some narrower than a row.
TEST_F(LinearActTest, BitIdenticalAcrossBandsAndColumnChunks) {
  for (const auto backend : available_backends()) {
    const kernels::ScopedBackend scoped_backend(backend);
    for (const auto dtype :
         {kernels::ComputeDtype::kFloat64, kernels::ComputeDtype::kFloat32}) {
      const kernels::ScopedComputeDtype scoped_dtype(dtype);
      for (const int lanes : {1, 4}) {
        ThreadPool::instance().resize(lanes);
        const Operands o = make_operands(2048, 24, 40, true, 7);
        for (const auto activation : kActivations) {
          expect_parity(o, activation,
                        std::string(kernels::backend_name(backend)) + "/" +
                            kernels::dtype_name(dtype) + "/lanes=" +
                            std::to_string(lanes) + " " +
                            activation_name(activation));
        }
      }
    }
  }
}

// No rows: the bias gradient is a (1, n) zero row, as reduce_to gives it.
TEST_F(LinearActTest, EmptyBatchMatchesUnfused) {
  const Operands o = make_operands(0, 4, 3, true, 13);
  for (const auto activation : kActivations) {
    expect_parity(o, activation, activation_name(activation));
  }
}

// A non-leaf input: gradients flow on into the producing layer, and its
// parameters accumulate exactly as through the unfused chain.
TEST_F(LinearActTest, ChainedLayersMatchUnfused) {
  Rng rng(11);
  const Tensor x0 = Tensor::randn(Shape{50, 6}, rng);
  const Tensor w0 = Tensor::randn(Shape{6, 8}, rng, 0.5);
  const Tensor b0 = Tensor::randn(Shape{1, 8}, rng, 0.5);
  const Tensor w1 = Tensor::randn(Shape{8, 3}, rng, 0.5);
  const Tensor b1 = Tensor::randn(Shape{1, 3}, rng, 0.5);
  const auto grads = [&](bool fused) {
    std::vector<Tensor> leaves = {x0.clone(), w0.clone(), b0.clone(),
                                  w1.clone(), b1.clone()};
    for (auto& leaf : leaves) leaf.set_requires_grad(true);
    const auto layer = [&](const Tensor& x, const Tensor& w, const Tensor& b,
                           Activation activation) {
      return fused ? linear_act(x, w, b, activation)
                   : unfused(x, w, b, activation);
    };
    const Tensor h = layer(leaves[0], leaves[1], leaves[2], Activation::kSiLU);
    // h feeds two consumers, so its gradient is accumulated.
    const Tensor y = layer(h, leaves[3], leaves[4], Activation::kTanh);
    sum(y * y + sum(h, 1, true)).backward();
    std::vector<std::vector<std::uint64_t>> out;
    for (const auto& leaf : leaves) out.push_back(bits(leaf.grad()));
    return out;
  };
  EXPECT_EQ(grads(true), grads(false));
}

TEST_F(LinearActTest, NoGradRecordsNoNodeAndSavesNothing) {
  const Operands o = make_operands(64, 8, 16, true, 3);
  MemoryTracker& tracker = MemoryTracker::instance();
  for (const auto activation : kActivations) {
    const autograd::NoGradGuard no_grad;
    const std::int64_t nodes = autograd::live_node_count();
    const std::int64_t before = tracker.live().total();
    const Tensor out = linear_act(o.x, o.w, o.b, activation);
    EXPECT_EQ(autograd::live_node_count(), nodes)
        << activation_name(activation);
    EXPECT_FALSE(out.requires_grad());
    // The output is the only buffer left behind.
    EXPECT_EQ(tracker.live().total() - before,
              out.numel() * static_cast<std::int64_t>(sizeof(real)))
        << activation_name(activation);
    EXPECT_EQ(bits(out), bits(unfused(o.x, o.w, o.b, activation)))
        << activation_name(activation);
  }
}

TEST_F(LinearActTest, FrozenParametersProduceOnlyDx) {
  for (const auto activation : kActivations) {
    Operands o = make_operands(40, 6, 5, true, 5);
    o.w.set_requires_grad(false);
    o.b.set_requires_grad(false);
    const Result fused = run(o, [&](const Tensor& x, const Tensor& w,
                                    const Tensor& b) {
      return linear_act(x, w, b, activation);
    });
    const Result chain = run(o, [&](const Tensor& x, const Tensor& w,
                                    const Tensor& b) {
      return unfused(x, w, b, activation);
    });
    EXPECT_EQ(fused.out, chain.out) << activation_name(activation);
    EXPECT_EQ(fused.dx, chain.dx) << activation_name(activation);
    EXPECT_TRUE(fused.dw.empty());
    EXPECT_TRUE(fused.db.empty());
  }
}

TEST_F(LinearActTest, KeepsNoMoreActivationBytesThanTheChain) {
  const Operands o = make_operands(128, 16, 16, true, 9);
  MemoryTracker& tracker = MemoryTracker::instance();
  const auto kept = [&](bool fused, Activation activation) {
    const ScopedMemCategory scope(MemCategory::kActivation);
    const std::int64_t before = tracker.live().of(MemCategory::kActivation);
    const Tensor out = fused ? linear_act(o.x, o.w, o.b, activation)
                             : unfused(o.x, o.w, o.b, activation);
    return tracker.live().of(MemCategory::kActivation) - before;
  };
  for (const auto activation : kActivations) {
    EXPECT_LE(kept(true, activation), kept(false, activation))
        << activation_name(activation);
  }
  // Linear+SiLU keeps v, sigmoid(v) and the output; the chain keeps the
  // matmul result, the biased sum and the output.
  EXPECT_EQ(kept(true, Activation::kSiLU), 3 * 128 * 16 * 8);
}

TEST_F(LinearActTest, RejectsBadShapes) {
  const Tensor x = Tensor::zeros(Shape{4, 3});
  const Tensor w = Tensor::zeros(Shape{3, 2});
  EXPECT_THROW(linear_act(x, Tensor::zeros(Shape{2, 2}), Tensor(),
                          Activation::kNone),
               Error);
  EXPECT_THROW(linear_act(x, w, Tensor::zeros(Shape{2}), Activation::kNone),
               Error);
  EXPECT_THROW(linear_act(x, w, Tensor::zeros(Shape{1, 3}), Activation::kNone),
               Error);
  EXPECT_THROW(linear_act(Tensor::zeros(Shape{12}), w, Tensor(),
                          Activation::kNone),
               Error);
}

}  // namespace
}  // namespace sgnn
