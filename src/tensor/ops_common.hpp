#pragma once

// Internal helpers shared by the op implementation files. Not installed.

#include <vector>

#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn::ops_detail {

/// Grain for plain elementwise loops (one cheap op per item).
inline constexpr std::int64_t kElementwiseGrain = 1 << 15;

/// Strides (in elements) for reading `in` as if broadcast to `out`:
/// broadcast dimensions get stride 0. `in` is right-aligned against `out`.
inline std::vector<std::int64_t> broadcast_strides(const Shape& in,
                                                   const Shape& out) {
  const auto in_strides = in.strides();
  std::vector<std::int64_t> result(out.rank(), 0);
  for (std::size_t i = 0; i < in.rank(); ++i) {
    const std::size_t out_axis = out.rank() - in.rank() + i;
    result[out_axis] = in.dim(i) == 1 ? 0 : in_strides[i];
  }
  return result;
}

/// Applies `f(a_val, b_val)` over the broadcast of a and b into `out`.
/// Each output element is written by exactly one chunk, so the result is
/// independent of how the pool partitions the range.
template <typename F>
void binary_broadcast(const Tensor& a, const Tensor& b, Tensor& out, F f) {
  const real* pa = a.data();
  const real* pb = b.data();
  real* po = out.data();
  const std::int64_t n = out.numel();

  if (a.shape() == b.shape()) {
    parallel_for(0, n, kElementwiseGrain,
                 [=](std::int64_t begin, std::int64_t end) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     po[i] = f(pa[i], pb[i]);
                   }
                 });
    return;
  }
  if (a.numel() == 1) {
    const real av = pa[0];
    parallel_for(0, n, kElementwiseGrain,
                 [=](std::int64_t begin, std::int64_t end) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     po[i] = f(av, pb[i]);
                   }
                 });
    return;
  }
  if (b.numel() == 1) {
    const real bv = pb[0];
    parallel_for(0, n, kElementwiseGrain,
                 [=](std::int64_t begin, std::int64_t end) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     po[i] = f(pa[i], bv);
                   }
                 });
    return;
  }

  const auto sa = broadcast_strides(a.shape(), out.shape());
  const auto sb = broadcast_strides(b.shape(), out.shape());
  if (out.rank() == 2) {
    // Row and column broadcasts, (m,n)∘(m,1) and (m,n)∘(1,n): address by
    // row and column instead of decomposing every flat index.
    const std::int64_t cols = out.dim(1);
    const std::int64_t ra = sa[0], ca = sa[1], rb = sb[0], cb = sb[1];
    parallel_for(0, out.dim(0), parallel_grain(cols),
                 [=](std::int64_t begin, std::int64_t end) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     const real* arow = pa + i * ra;
                     const real* brow = pb + i * rb;
                     real* orow = po + i * cols;
                     for (std::int64_t j = 0; j < cols; ++j) {
                       orow[j] = f(arow[j * ca], brow[j * cb]);
                     }
                   }
                 });
    return;
  }
  const auto so = out.shape().strides();
  const std::size_t rank = out.rank();
  parallel_for(0, n, kElementwiseGrain, [&, pa, pb, po](std::int64_t begin,
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
      po[i] = f(pa[oa], pb[ob]);
    }
  });
}

/// Sum-reduces `grad` (shaped like the broadcast output) back to `target`,
/// the pre-broadcast input shape. Used by the backward of broadcasting ops.
inline Tensor reduce_to(const Tensor& grad, const Shape& target) {
  if (grad.shape() == target) return grad;
  SGNN_CHECK(Shape::broadcastable_to(target, grad.shape()),
             "reduce_to: " << target.to_string() << " does not broadcast to "
                           << grad.shape().to_string());
  const obs::prof::KernelScope prof(
      "reduce_to", grad.numel(),
      obs::prof::sat_mul(static_cast<std::int64_t>(sizeof(real)),
                         obs::prof::sat_add(grad.numel(), target.numel())));
  Tensor out = Tensor::zeros(target);
  const auto st = broadcast_strides(target, grad.shape());
  const real* pg = grad.data();
  real* po = out.data();
  if (grad.rank() == 2) {
    // Every target element sums its grad elements in row-major order,
    // starting from zero, exactly as the flat loop below does.
    const std::int64_t rows = grad.dim(0);
    const std::int64_t cols = grad.dim(1);
    if (st[0] == 1 && st[1] == 0) {  // (rows, 1): row sums
      parallel_for(0, rows, parallel_grain(cols),
                   [=](std::int64_t begin, std::int64_t end) {
                     for (std::int64_t i = begin; i < end; ++i) {
                       real acc = 0;
                       for (std::int64_t j = 0; j < cols; ++j) {
                         acc += pg[i * cols + j];
                       }
                       po[i] = acc;
                     }
                   });
      return out;
    }
    if (st[0] == 0 && st[1] == 1) {  // (1, cols): column sums
      parallel_for(0, cols, parallel_grain(rows),
                   [=](std::int64_t begin, std::int64_t end) {
                     for (std::int64_t i = 0; i < rows; ++i) {
                       const real* row = pg + i * cols;
                       for (std::int64_t j = begin; j < end; ++j) {
                         po[j] += row[j];
                       }
                     }
                   });
      return out;
    }
  }
  const auto sg = grad.shape().strides();
  const std::size_t rank = grad.rank();
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t rem = i;
    std::int64_t ot = 0;
    for (std::size_t axis = 0; axis < rank; ++axis) {
      const std::int64_t coord = rem / sg[axis];
      rem -= coord * sg[axis];
      ot += coord * st[axis];
    }
    po[ot] += pg[i];
  }
  return out;
}

}  // namespace sgnn::ops_detail
