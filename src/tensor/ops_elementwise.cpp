#include <cmath>

#include "ops_common.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

using kernels::BinaryOp;
using kernels::UnaryOp;
using obs::prof::sat_mul;
using ops_detail::binary_broadcast;
using ops_detail::kElementwiseGrain;
using ops_detail::reduce_to;

namespace {

/// Reference evaluation of a binary op, used only by the general strided
/// broadcast path (which stays fp64 on every backend — see docs/kernels.md).
real apply_binary(BinaryOp op, real x, real y) {
  switch (op) {
    case BinaryOp::kAdd:
      return x + y;
    case BinaryOp::kSub:
      return x - y;
    case BinaryOp::kMul:
      return x * y;
    case BinaryOp::kDiv:
      return x / y;
  }
  return 0;
}

/// Forward of a broadcasting binary op. The contiguous fast paths
/// (same-shape and scalar operands) dispatch through the kernel backend;
/// the general strided path runs the fp64 reference loop on all backends.
void binary_forward(BinaryOp op, const Tensor& ad, const Tensor& bd,
                    Tensor& out) {
  const std::int64_t n = out.numel();
  if (ad.shape() == bd.shape()) {
    kernels::binary(op, ad.data(), bd.data(), out.data(), n,
                    kernels::Broadcast::kNone);
    return;
  }
  if (ad.numel() == 1 || bd.numel() == 1) {
    kernels::binary(op, ad.data(), bd.data(), out.data(), n,
                    ad.numel() == 1 ? kernels::Broadcast::kA
                                    : kernels::Broadcast::kB);
    return;
  }
  binary_broadcast(ad, bd, out,
                   [op](real x, real y) { return apply_binary(op, x, y); });
}

/// Builds a broadcasting binary op. The same-shape backward dispatches
/// through the kernel backend; broadcasting backwards evaluate the strided
/// fp64 loop with `bwd_a`/`bwd_b` (d(out)/d(input) at one element) and then
/// sum-reduce to each input's shape.
template <typename BackwardA, typename BackwardB>
Tensor binary_op(const Tensor& a, const Tensor& b, const char* name,
                 BinaryOp op, BackwardA bwd_a, BackwardB bwd_b) {
  const Shape out_shape = Shape::broadcast(a.shape(), b.shape());
  const Tensor ad = a.detach();
  const Tensor bd = b.detach();
  const Shape a_shape = a.shape();
  const Shape b_shape = b.shape();
  Tensor out = Tensor::make_result(
      out_shape, {a, b},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        // Gradient in the broadcast shape, then reduced to each input.
        Tensor ga = Tensor::zeros(grad.shape());
        Tensor gb = Tensor::zeros(grad.shape());
        {
          // Evaluate d(out)/d(a) * grad and d(out)/d(b) * grad pointwise.
          const obs::prof::KernelScope prof(
              name, sat_mul(4, grad.numel()),
              sat_mul(5 * kernels::compute_element_size(), grad.numel()),
              ".bwd");
          const std::int64_t n = grad.numel();
          if (a_shape == grad.shape() && b_shape == grad.shape()) {
            kernels::binary_backward(op, ad.data(), bd.data(), grad.data(),
                                     ga.data(), gb.data(), n);
          } else {
            const auto sa =
                ops_detail::broadcast_strides(a_shape, grad.shape());
            const auto sb =
                ops_detail::broadcast_strides(b_shape, grad.shape());
            const std::size_t rank = grad.rank();
            const real* pa = ad.data();
            const real* pb = bd.data();
            const real* pg = grad.data();
            real* pga = ga.data();
            real* pgb = gb.data();
            if (rank == 2) {
              // Row/column broadcasts: the same fp64 expressions, indexed
              // by row and column (see binary_broadcast).
              const std::int64_t cols = grad.dim(1);
              const std::int64_t ra = sa[0], ca = sa[1];
              const std::int64_t rb = sb[0], cb = sb[1];
              parallel_for(
                  0, grad.dim(0), parallel_grain(cols),
                  [=](std::int64_t begin, std::int64_t end) {
                    for (std::int64_t i = begin; i < end; ++i) {
                      for (std::int64_t j = 0; j < cols; ++j) {
                        const real x = pa[i * ra + j * ca];
                        const real y = pb[i * rb + j * cb];
                        const std::int64_t o = i * cols + j;
                        pga[o] = bwd_a(x, y) * pg[o];
                        pgb[o] = bwd_b(x, y) * pg[o];
                      }
                    }
                  });
            } else {
              const auto so = grad.shape().strides();
              parallel_for(
                  0, n, kElementwiseGrain,
                  [&, pa, pb, pg, pga, pgb](std::int64_t begin,
                                            std::int64_t end) {
                    for (std::int64_t i = begin; i < end; ++i) {
                      std::int64_t rem = i;
                      std::int64_t oa = 0;
                      std::int64_t ob = 0;
                      for (std::size_t axis = 0; axis < rank; ++axis) {
                        const std::int64_t coord = rem / so[axis];
                        rem -= coord * so[axis];
                        oa += coord * sa[axis];
                        ob += coord * sb[axis];
                      }
                      pga[i] = bwd_a(pa[oa], pb[ob]) * pg[i];
                      pgb[i] = bwd_b(pa[oa], pb[ob]) * pg[i];
                    }
                  });
            }
          }
        }
        return {reduce_to(ga, a_shape), reduce_to(gb, b_shape)};
      },
      name);
  {
    const obs::prof::KernelScope prof(
        name, out.numel(),
        sat_mul(3 * kernels::compute_element_size(), out.numel()));
    binary_forward(op, ad, bd, out);
  }
  return out;
}

/// Builds an elementwise unary op dispatched through the kernel backend.
/// `c` is the op parameter (factor/addend/exponent/bound) where one exists.
Tensor unary_op(const Tensor& x, const char* name, UnaryOp op, real c = 0) {
  const Tensor xd = x.detach();
  Tensor out = Tensor::make_result(
      x.shape(), {x},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        Tensor gx = Tensor::zeros(grad.shape());
        const std::int64_t n = grad.numel();
        {
          const obs::prof::KernelScope prof(
              name, sat_mul(2, n),
              sat_mul(3 * kernels::compute_element_size(), n), ".bwd");
          kernels::unary_backward(op, xd.data(), grad.data(), gx.data(), c,
                                  n);
        }
        return {gx};
      },
      name);
  const std::int64_t n = out.numel();
  {
    const obs::prof::KernelScope prof(
        name, n, sat_mul(2 * kernels::compute_element_size(), n));
    kernels::unary(op, xd.data(), out.data(), c, n);
  }
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  SGNN_CHECK(a.defined() && b.defined(), "add requires defined inputs");
  const Shape a_shape = a.shape();
  const Shape b_shape = b.shape();
  Tensor out = Tensor::make_result(
      Shape::broadcast(a_shape, b_shape), {a, b},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        return {reduce_to(grad, a_shape), reduce_to(grad, b_shape)};
      },
      "add");
  {
    const obs::prof::KernelScope prof(
        "add", out.numel(),
        sat_mul(3 * kernels::compute_element_size(), out.numel()));
    binary_forward(BinaryOp::kAdd, a.detach(), b.detach(), out);
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  SGNN_CHECK(a.defined() && b.defined(), "sub requires defined inputs");
  const Shape a_shape = a.shape();
  const Shape b_shape = b.shape();
  Tensor out = Tensor::make_result(
      Shape::broadcast(a_shape, b_shape), {a, b},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        Tensor gneg = Tensor::zeros(grad.shape());
        const std::int64_t n = grad.numel();
        {
          const obs::prof::KernelScope prof(
              "sub", n, sat_mul(2 * kernels::compute_element_size(), n),
              ".bwd");
          kernels::unary(UnaryOp::kNeg, grad.data(), gneg.data(), 0, n);
        }
        return {reduce_to(grad, a_shape), reduce_to(gneg, b_shape)};
      },
      "sub");
  {
    const obs::prof::KernelScope prof(
        "sub", out.numel(),
        sat_mul(3 * kernels::compute_element_size(), out.numel()));
    binary_forward(BinaryOp::kSub, a.detach(), b.detach(), out);
  }
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  SGNN_CHECK(a.defined() && b.defined(), "mul requires defined inputs");
  return binary_op(
      a, b, "mul", BinaryOp::kMul, [](real, real y) { return y; },
      [](real x, real) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  SGNN_CHECK(a.defined() && b.defined(), "div requires defined inputs");
  return binary_op(
      a, b, "div", BinaryOp::kDiv,
      [](real, real y) { return real{1} / y; },
      [](real x, real y) { return -x / (y * y); });
}

Tensor neg(const Tensor& x) {
  SGNN_CHECK(x.defined(), "neg requires a defined input");
  return unary_op(x, "neg", UnaryOp::kNeg);
}

Tensor scale(const Tensor& x, real factor) {
  SGNN_CHECK(x.defined(), "scale requires a defined input");
  return unary_op(x, "scale", UnaryOp::kScale, factor);
}

Tensor add_scalar(const Tensor& x, real value) {
  SGNN_CHECK(x.defined(), "add_scalar requires a defined input");
  return unary_op(x, "add_scalar", UnaryOp::kAddScalar, value);
}

Tensor pow_scalar(const Tensor& x, real exponent) {
  SGNN_CHECK(x.defined(), "pow_scalar requires a defined input");
  return unary_op(x, "pow_scalar", UnaryOp::kPow, exponent);
}

Tensor square(const Tensor& x) {
  SGNN_CHECK(x.defined(), "square requires a defined input");
  return unary_op(x, "square", UnaryOp::kSquare);
}

Tensor sqrt_op(const Tensor& x) {
  SGNN_CHECK(x.defined(), "sqrt_op requires a defined input");
  return unary_op(x, "sqrt", UnaryOp::kSqrt);
}

Tensor exp_op(const Tensor& x) {
  SGNN_CHECK(x.defined(), "exp_op requires a defined input");
  return unary_op(x, "exp", UnaryOp::kExp);
}

Tensor log_op(const Tensor& x) {
  SGNN_CHECK(x.defined(), "log_op requires a defined input");
  return unary_op(x, "log", UnaryOp::kLog);
}

Tensor abs_op(const Tensor& x) {
  SGNN_CHECK(x.defined(), "abs_op requires a defined input");
  return unary_op(x, "abs", UnaryOp::kAbs);
}

Tensor clamp_min(const Tensor& x, real bound) {
  SGNN_CHECK(x.defined(), "clamp_min requires a defined input");
  return unary_op(x, "clamp_min", UnaryOp::kClampMin, bound);
}

Tensor relu(const Tensor& x) {
  SGNN_CHECK(x.defined(), "relu requires a defined input");
  return unary_op(x, "relu", UnaryOp::kRelu);
}

Tensor sigmoid(const Tensor& x) {
  SGNN_CHECK(x.defined(), "sigmoid requires a defined input");
  return unary_op(x, "sigmoid", UnaryOp::kSigmoid);
}

Tensor tanh_op(const Tensor& x) {
  SGNN_CHECK(x.defined(), "tanh_op requires a defined input");
  return unary_op(x, "tanh", UnaryOp::kTanh);
}

Tensor silu(const Tensor& x) {
  SGNN_CHECK(x.defined(), "silu requires a defined input");
  return unary_op(x, "silu", UnaryOp::kSilu);
}

Tensor softplus(const Tensor& x) {
  SGNN_CHECK(x.defined(), "softplus requires a defined input");
  return unary_op(x, "softplus", UnaryOp::kSoftplus);
}

Tensor row_norm_squared(const Tensor& x) {
  SGNN_CHECK(x.rank() == 2, "row_norm_squared requires rank-2 input, got "
                                << x.shape().to_string());
  return sum(square(x), /*axis=*/1, /*keepdim=*/true);
}

Tensor mse_loss(const Tensor& prediction, const Tensor& target) {
  SGNN_CHECK(prediction.shape() == target.shape(),
             "mse_loss shape mismatch: " << prediction.shape().to_string()
                                         << " vs "
                                         << target.shape().to_string());
  return mean(square(prediction - target.detach()));
}

}  // namespace sgnn
