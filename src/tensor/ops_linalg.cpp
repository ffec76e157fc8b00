#include <algorithm>

#include "ops_common.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/grad_reducer.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

Tensor matmul(const Tensor& a, const Tensor& b) {
  SGNN_CHECK(a.rank() == 2 && b.rank() == 2,
             "matmul requires rank-2 operands, got "
                 << a.shape().to_string() << " x " << b.shape().to_string());
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  SGNN_CHECK(b.dim(0) == k, "matmul inner-dimension mismatch: "
                                << a.shape().to_string() << " x "
                                << b.shape().to_string());
  const Tensor ad = a.detach();
  const Tensor bd = b.detach();
  using obs::prof::sat_add;
  using obs::prof::sat_mul;
  Tensor out = Tensor::make_result(
      Shape{m, n}, {a, b},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        // dA = G @ Bᵀ, dB = Aᵀ @ G: two products, each priced like the
        // forward one (see the kernel cost model in docs/observability.md).
        const std::int64_t w = kernels::compute_element_size();
        const obs::prof::KernelScope prof(
            "matmul", sat_mul(4, m, k, n),
            sat_mul(2 * w, sat_add(sat_mul(m, k), sat_mul(k, n),
                                   sat_mul(m, n))),
            ".bwd");
        Tensor ga = Tensor::zeros(Shape{m, k});
        kernels::matmul_a_bt(grad.data(), bd.data(), ga.data(), m, n, k);
        Tensor gb = Tensor::zeros(Shape{k, n});
        kernels::matmul_at_b(ad.data(), grad.data(), gb.data(), m, k, n);
        return {ga, gb};
      },
      "matmul");
  {
    const std::int64_t w = kernels::compute_element_size();
    const obs::prof::KernelScope prof(
        "matmul", sat_mul(2, m, k, n),
        sat_mul(w, sat_add(sat_mul(m, k), sat_mul(k, n), sat_mul(m, n))));
    kernels::matmul(ad.data(), bd.data(), out.data(), m, k, n);
  }
  return out;
}

namespace {

using kernels::BinaryOp;
using kernels::Broadcast;
using kernels::ElementwiseKernels;
using kernels::UnaryOp;

/// v[i, :] += b over `rows` rows of width n, in place, with the arithmetic
/// add(matmul(x, w), b) uses for these shapes: a bias shaped like v
/// (`one_row`) or holding one element (n == 1) takes the compute-dtype
/// kernel, any other (1, n) bias the fp64 broadcast loop.
void add_bias_rows(const ElementwiseKernels& ew, bool one_row, real* v,
                   const real* b, std::int64_t rows, std::int64_t n) {
  if (one_row || n == 1) {
    ew.binary(BinaryOp::kAdd, v, b, v, rows * n,
              one_row ? Broadcast::kNone : Broadcast::kB);
    return;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    real* row = v + i * n;
    for (std::int64_t j = 0; j < n; ++j) row[j] = row[j] + b[j];
  }
}

/// out = act(v) over `count` elements; also s = sigmoid(v) for SiLU when
/// `s` is set (out may alias v only when `s` is not).
void activate(const ElementwiseKernels& ew, Activation activation,
              const real* v, real* out, real* s, std::int64_t count) {
  switch (activation) {
    case Activation::kNone:
      return;
    case Activation::kReLU:
      ew.unary(UnaryOp::kRelu, v, out, 0, count);
      return;
    case Activation::kTanh:
      ew.unary(UnaryOp::kTanh, v, out, 0, count);
      return;
    case Activation::kSiLU:
      if (s == nullptr) {
        ew.unary(UnaryOp::kSilu, v, out, 0, count);
        return;
      }
      // silu(v) = v * sigmoid(v), the kSilu expression split in two so the
      // sigmoid is kept for backward.
      ew.unary(UnaryOp::kSigmoid, v, s, 0, count);
      ew.binary(BinaryOp::kMul, v, s, out, count, Broadcast::kNone);
      return;
  }
}

/// dv = g * act'(v) over `count` elements, SiLU from the saved sigmoid s.
void activation_backward(const ElementwiseKernels& ew, Activation activation,
                         const real* v, const real* s, const real* g,
                         real* dv, std::int64_t count) {
  switch (activation) {
    case Activation::kNone:
      return;
    case Activation::kReLU:
      ew.unary_bwd(UnaryOp::kRelu, v, g, dv, 0, count);
      return;
    case Activation::kTanh:
      ew.unary_bwd(UnaryOp::kTanh, v, g, dv, 0, count);
      return;
    case Activation::kSiLU:
      ew.silu_bwd_saved(v, s, g, dv, count);
      return;
  }
}

/// Elements per row block of the backward epilogue (16 KB of dv), so the bias
/// column sum reads rows the activation derivative just wrote to L1.
constexpr std::int64_t kEpilogueBlockElements = 2048;

}  // namespace

Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  Activation activation) {
  SGNN_CHECK(x.rank() == 2 && w.rank() == 2,
             "linear_act requires rank-2 x and w, got "
                 << x.shape().to_string() << " x " << w.shape().to_string());
  const std::int64_t m = x.dim(0);
  const std::int64_t k = x.dim(1);
  const std::int64_t n = w.dim(1);
  SGNN_CHECK(w.dim(0) == k, "linear_act inner-dimension mismatch: "
                                << x.shape().to_string() << " x "
                                << w.shape().to_string());
  const bool has_bias = b.defined();
  SGNN_CHECK(!has_bias || (b.rank() == 2 && b.dim(0) == 1 && b.dim(1) == n),
             "linear_act bias must be (1, " << n << "), got "
                                            << b.shape().to_string());
  const bool need_x = x.requires_grad();
  const bool need_w = w.requires_grad();
  const bool need_b = has_bias && b.requires_grad();
  const bool record = autograd::grad_enabled() && (need_x || need_w || need_b);
  const bool act_on = activation != Activation::kNone;
  // Saved for backward: the pre-activation v (for kNone the output is v
  // itself) and, for SiLU, s = sigmoid(v). Nothing without a tape.
  Tensor v = record && act_on ? Tensor::zeros(Shape{m, n}) : Tensor();
  Tensor s = record && activation == Activation::kSiLU
                 ? Tensor::zeros(Shape{m, n})
                 : Tensor();
  // Under graph parallelism x is row-sharded across ranks while w and b
  // are replicated leaves: dW and db fold over the global rows, so the
  // armed reducer continues those folds rank to rank (grad_reducer.hpp).
  // The conditions depend only on the parameters, so all ranks agree.
  ShardedGradReducer* const reducer = current_sharded_grad_reducer();
  const bool ring_w = reducer != nullptr && need_w && w.is_leaf();
  const bool ring_b = reducer != nullptr && need_b && b.is_leaf();
  const Tensor xd = x.detach();
  const Tensor wd = w.detach();
  using obs::prof::sat_add;
  using obs::prof::sat_mul;
  // Cost-model terms (docs/observability.md): bias add, activation, and
  // the number of (m, n) buffers saved for backward.
  const std::int64_t bias_terms = has_bias ? 1 : 0;
  const std::int64_t act_terms = act_on ? 1 : 0;
  const std::int64_t saved = (v.defined() ? 1 : 0) + (s.defined() ? 1 : 0);
  std::vector<Tensor> inputs{x, w};
  if (has_bias) inputs.push_back(b);
  Tensor out = Tensor::make_result(
      Shape{m, n}, std::move(inputs),
      [=](const Tensor& grad) -> std::vector<Tensor> {
        const ElementwiseKernels& ew = kernels::elementwise();
        // The bias gradient's column sums stay fp64 in either dtype.
        const auto accumulate =
            kernels::elementwise(kernels::ComputeDtype::kFloat64).accumulate;
        Tensor dv = act_on ? Tensor::zeros(Shape{m, n}) : grad;
        Tensor dx;
        Tensor dw;
        Tensor db;
        const bool sum_b = need_b && !ring_b;
        {
          const std::int64_t gemms = (need_x ? 1 : 0) + (need_w ? 1 : 0);
          const obs::prof::KernelScope prof(
              "linear_act",
              sat_add(sat_mul(2 * gemms, m, k, n),
                      sat_mul(2 * act_terms + (sum_b ? 1 : 0), m, n)),
              sat_mul(kernels::compute_element_size(),
                      sat_add(sat_mul(1 + act_terms + saved, m, n),
                              sat_mul(gemms, sat_add(sat_mul(m, k),
                                                     sat_mul(k, n),
                                                     sat_mul(m, n))),
                              sum_b ? n : 0)),
              ".bwd");
          // dv = g * act'(v) and db = column sums of dv in one pass: each
          // column chunk walks the rows in ascending order, which is the
          // order reduce_to accumulates in. A one-row bias gradient is dv
          // itself, as reduce_to returns it for equal shapes.
          real* pdb = nullptr;
          if (sum_b && m == 1) {
            db = dv;
          } else if (sum_b) {
            db = Tensor::zeros(Shape{1, n});
            pdb = db.data();
          }
          if (act_on || pdb != nullptr) {
            const real* pv = act_on ? v.data() : nullptr;
            const real* ps = s.defined() ? s.data() : nullptr;
            const real* pg = grad.data();
            real* pdv = dv.data();  // for kNone this is g: read only
            parallel_for(
                0, n, parallel_grain(m),
                [=, &ew](std::int64_t j0, std::int64_t j1) {
                  const std::int64_t block_rows =
                      std::max<std::int64_t>(1, kEpilogueBlockElements / n);
                  const std::int64_t width = j1 - j0;
                  for (std::int64_t i0 = 0; i0 < m; i0 += block_rows) {
                    const std::int64_t i1 = std::min(m, i0 + block_rows);
                    // Full-width rows are contiguous: one segment a block.
                    const std::int64_t step = width == n ? i1 - i0 : 1;
                    for (std::int64_t i = i0; act_on && i < i1; i += step) {
                      const std::int64_t off = i * n + j0;
                      activation_backward(
                          ew, activation, pv + off,
                          ps == nullptr ? nullptr : ps + off, pg + off,
                          pdv + off, width == n ? step * n : width);
                    }
                    if (pdb == nullptr) continue;
                    for (std::int64_t i = i0; i < i1; ++i) {
                      accumulate(pdv + i * n + j0, pdb + j0, width);
                    }
                  }
                });
          }
          if (need_x) {
            dx = Tensor::zeros(Shape{m, k});
            kernels::matmul_a_bt(dv.data(), wd.data(), dx.data(), m, n, k);
          }
          if (need_w && !ring_w) {
            dw = Tensor::zeros(Shape{k, n});
            kernels::matmul_at_b(xd.data(), dv.data(), dw.data(), m, k, n);
          }
        }
        if (ring_w) dw = reducer->matmul_weight_grad(xd, dv);
        if (ring_b) db = reducer->rows_sum_grad(dv);
        if (!has_bias) return {dx, dw};
        return {dx, dw, db};
      },
      "linear_act");
  const obs::prof::KernelScope prof(
      "linear_act",
      sat_add(sat_mul(2, m, k, n), sat_mul(bias_terms + act_terms, m, n)),
      sat_mul(kernels::compute_element_size(),
              sat_add(sat_add(sat_mul(m, k), sat_mul(k, n)),
                      sat_mul(1 + saved, m, n), bias_terms * n)));
  const ElementwiseKernels& ew = kernels::elementwise();
  real* po = out.data();
  real* pv = v.defined() ? v.data() : po;
  real* ps = s.defined() ? s.data() : nullptr;
  const real* pb = has_bias ? b.data() : nullptr;
  // GEMM into v, then bias and activation per row band while it is cached.
  kernels::matmul(xd.data(), wd.data(), pv, m, k, n,
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    const std::int64_t off = row_begin * n;
                    if (pb != nullptr) {
                      add_bias_rows(ew, m == 1, pv + off, pb,
                                    row_end - row_begin, n);
                    }
                    activate(ew, activation, pv + off, po + off,
                             ps == nullptr ? nullptr : ps + off,
                             (row_end - row_begin) * n);
                  });
  return out;
}

Tensor transpose(const Tensor& x) {
  SGNN_CHECK(x.rank() == 2, "transpose requires rank-2 input, got "
                                << x.shape().to_string());
  const std::int64_t rows = x.dim(0);
  const std::int64_t cols = x.dim(1);
  const Tensor xd = x.detach();
  using obs::prof::sat_mul;
  Tensor out = Tensor::make_result(
      Shape{cols, rows}, {x},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        const obs::prof::KernelScope prof(
            "transpose", 0,
            sat_mul(2 * static_cast<std::int64_t>(sizeof(real)), rows, cols),
            ".bwd");
        Tensor gx = Tensor::zeros(Shape{rows, cols});
        const real* pg = grad.data();
        real* pgx = gx.data();
        parallel_for(0, cols, parallel_grain(rows),
                     [=](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         for (std::int64_t j = 0; j < rows; ++j) {
                           pgx[j * cols + i] = pg[i * rows + j];
                         }
                       }
                     });
        return {gx};
      },
      "transpose");
  const obs::prof::KernelScope prof(
      "transpose", 0,
      sat_mul(2 * static_cast<std::int64_t>(sizeof(real)), rows, cols));
  const real* px = xd.data();
  real* po = out.data();
  parallel_for(0, rows, parallel_grain(cols),
               [=](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t i = begin; i < end; ++i) {
                   for (std::int64_t j = 0; j < cols; ++j) {
                     po[j * rows + i] = px[i * cols + j];
                   }
                 }
               });
  return out;
}

}  // namespace sgnn
