#pragma once

#include <cstdint>
#include <vector>

#include "sgnn/tensor/tensor.hpp"

namespace sgnn {

// ---------------------------------------------------------------------------
// Binary elementwise operations with NumPy-style broadcasting.
// ---------------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

// ---------------------------------------------------------------------------
// Scalar & unary elementwise operations.
// ---------------------------------------------------------------------------

Tensor neg(const Tensor& x);
Tensor scale(const Tensor& x, real factor);
Tensor add_scalar(const Tensor& x, real value);
/// x^p for scalar exponent p (x must be positive when p is non-integral).
Tensor pow_scalar(const Tensor& x, real exponent);
Tensor square(const Tensor& x);
Tensor sqrt_op(const Tensor& x);
Tensor exp_op(const Tensor& x);
Tensor log_op(const Tensor& x);
Tensor abs_op(const Tensor& x);
/// max(x, bound) elementwise; gradient is passed where x > bound.
Tensor clamp_min(const Tensor& x, real bound);

Tensor relu(const Tensor& x);
Tensor sigmoid(const Tensor& x);
Tensor tanh_op(const Tensor& x);
/// SiLU / swish: x * sigmoid(x) — the activation used by the EGNN layers.
Tensor silu(const Tensor& x);
/// Numerically-clamped softplus: log(1 + exp(x)).
Tensor softplus(const Tensor& x);

inline Tensor operator-(const Tensor& x) { return neg(x); }
inline Tensor operator*(const Tensor& x, real s) { return scale(x, s); }
inline Tensor operator*(real s, const Tensor& x) { return scale(x, s); }
inline Tensor operator+(const Tensor& x, real s) { return add_scalar(x, s); }
inline Tensor operator+(real s, const Tensor& x) { return add_scalar(x, s); }
inline Tensor operator-(const Tensor& x, real s) { return add_scalar(x, -s); }

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// (m, k) x (k, n) -> (m, n) dense matrix product.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Activation functions of a Linear layer (see linear_act).
enum class Activation { kNone, kReLU, kSiLU, kTanh };

/// Fused Linear layer act(x W + b): x (m, k), w (k, n), b (1, n) or
/// undefined for no bias. One autograd node over {x, w, b}, bit-identical
/// to act(add(matmul(x, w), b)) on every backend, dtype and thread count.
/// The bias add is fp64, the activation runs in the compute dtype, and the
/// bias gradient sums rows in ascending order (see docs/kernels.md).
Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  Activation activation);

/// 2-D transpose.
Tensor transpose(const Tensor& x);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor sum(const Tensor& x);
/// Sum along one axis.
Tensor sum(const Tensor& x, std::size_t axis, bool keepdim);
/// Mean of all elements -> scalar.
Tensor mean(const Tensor& x);
/// Mean along one axis.
Tensor mean(const Tensor& x, std::size_t axis, bool keepdim);

// ---------------------------------------------------------------------------
// Shape manipulation.
// ---------------------------------------------------------------------------

/// Same data, new shape (element counts must match).
Tensor reshape(const Tensor& x, const Shape& shape);
/// Concatenation along `axis`; all inputs must agree on the other axes.
Tensor concat(const std::vector<Tensor>& parts, std::size_t axis);
/// Contiguous sub-range along `axis`: elements [start, start + length).
Tensor narrow(const Tensor& x, std::size_t axis, std::int64_t start,
              std::int64_t length);

// ---------------------------------------------------------------------------
// Indexed operations — the message-passing primitives. Indices are plain
// host arrays (graph connectivity is static data, never differentiated).
// ---------------------------------------------------------------------------

/// Gathers rows of a 2-D tensor: out[i, :] = x[index[i], :].
Tensor index_select_rows(const Tensor& x, const std::vector<std::int64_t>& index);

/// Segment-sum of rows: out[index[i], :] += src[i, :], with `num_rows` output
/// rows. This is the aggregation step of message passing and the pooling
/// step of the graph-level readout.
Tensor scatter_add_rows(const Tensor& src, const std::vector<std::int64_t>& index,
                        std::int64_t num_rows);

// ---------------------------------------------------------------------------
// Composite helpers.
// ---------------------------------------------------------------------------

/// Row-wise L2 norm squared of a 2-D tensor -> (rows, 1).
Tensor row_norm_squared(const Tensor& x);

/// Mean squared error between prediction and target (target is constant).
Tensor mse_loss(const Tensor& prediction, const Tensor& target);

}  // namespace sgnn
