#pragma once

// Templated scalar reference kernels shared by both backend TUs: the scalar
// table instantiates them as-is, the SIMD table uses them for remainder
// lanes and for the transcendental ops it does not vectorize (so scalar and
// SIMD results agree bit-for-bit there by construction).
//
// Everything lives in an anonymous namespace ON PURPOSE: each backend TU
// gets its own internal-linkage copies, so the scalar table can never end up
// linked against instantiations compiled with the SIMD TU's stricter ISA
// flags (the classic static-archive -mavx2 ODR hazard).
//
// The compute type `C` implements the mixed-precision semantics: C=double is
// the plain fp64 path; C=float rounds every operand through float and widens
// the float-precision result back into the double storage (master data stays
// fp64). Reductions always carry a double accumulator; under C=float only
// the inputs are rounded (documented in docs/kernels.md).

#include <cmath>
#include <cstdint>

#include "sgnn/tensor/kernels.hpp"

namespace sgnn::kernels {
namespace {

// ---------------------------------------------------------------------------
// Matmul bands. No zero-skip on `av` anywhere: 0 × Inf and 0 × NaN must
// propagate per IEEE 754 (the PR 7 headline bugfix — a skip would report a
// finite product where a non-skipping backend correctly surfaces NaN).

/// C(m,n) = A(m,k) @ B(k,n), rows [row_begin, row_end). ikj order keeps the
/// inner loop contiguous in both B and C; each C element accumulates over p
/// in ascending order.
template <typename T>
void matmul_rows_ref(const T* a, const T* b, T* c, std::int64_t k,
                     std::int64_t n, std::int64_t row_begin,
                     std::int64_t row_end) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    T* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const T av = a[i * k + p];
      const T* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C(k,n) = Aᵀ @ B with A (m,k), B (m,n); rows [row_begin, row_end) of C.
/// p stays outermost so B rows stream contiguously once per band; per
/// element the accumulation order over p matches matmul_rows_ref.
template <typename T>
void matmul_at_b_band_ref(const T* a, const T* b, T* c, std::int64_t m,
                          std::int64_t k, std::int64_t n,
                          std::int64_t row_begin, std::int64_t row_end) {
  for (std::int64_t i = row_begin * n; i < row_end * n; ++i) c[i] = 0;
  for (std::int64_t p = 0; p < m; ++p) {
    const T* arow = a + p * k;
    const T* brow = b + p * n;
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      const T av = arow[i];
      T* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C(m,k) = A(m,n) @ Bᵀ with B (k,n); rows [row_begin, row_end) of C.
template <typename T>
void matmul_a_bt_rows_ref(const T* a, const T* b, T* c, std::int64_t n,
                          std::int64_t k, std::int64_t row_begin,
                          std::int64_t row_end) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const T* arow = a + i * n;
    T* crow = c + i * k;
    for (std::int64_t j = 0; j < k; ++j) {
      const T* brow = b + j * n;
      T acc = 0;
      for (std::int64_t p = 0; p < n; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise. Formulas are kept textually identical to the historical op
// lambdas so the fp64 path reproduces them bit-for-bit.

template <typename C>
C sigmoid_val_ref(C v) {
  return C{1} / (C{1} + std::exp(-v));
}

template <typename C>
void binary_ref(BinaryOp op, const real* a, const real* b, real* out,
                std::int64_t n) {
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) +
                                   static_cast<C>(b[i]));
      }
      return;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) -
                                   static_cast<C>(b[i]));
      }
      return;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) *
                                   static_cast<C>(b[i]));
      }
      return;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) /
                                   static_cast<C>(b[i]));
      }
      return;
  }
}

template <typename C>
void binary_scalar_l_ref(BinaryOp op, real a, const real* b, real* out,
                         std::int64_t n) {
  const C av = static_cast<C>(a);
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(av + static_cast<C>(b[i]));
      }
      return;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(av - static_cast<C>(b[i]));
      }
      return;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(av * static_cast<C>(b[i]));
      }
      return;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(av / static_cast<C>(b[i]));
      }
      return;
  }
}

template <typename C>
void binary_scalar_r_ref(BinaryOp op, const real* a, real b, real* out,
                         std::int64_t n) {
  const C bv = static_cast<C>(b);
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) + bv);
      }
      return;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) - bv);
      }
      return;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) * bv);
      }
      return;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(a[i]) / bv);
      }
      return;
  }
}

template <typename C>
void binary_bwd_ref(BinaryOp op, const real* a, const real* b, const real* g,
                    real* ga, real* gb, std::int64_t n) {
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < n; ++i) {
        const C gg = static_cast<C>(g[i]);
        ga[i] = static_cast<real>(C{1} * gg);
        gb[i] = static_cast<real>(C{1} * gg);
      }
      return;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < n; ++i) {
        const C gg = static_cast<C>(g[i]);
        ga[i] = static_cast<real>(C{1} * gg);
        gb[i] = static_cast<real>(C{-1} * gg);
      }
      return;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < n; ++i) {
        const C gg = static_cast<C>(g[i]);
        ga[i] = static_cast<real>(static_cast<C>(b[i]) * gg);
        gb[i] = static_cast<real>(static_cast<C>(a[i]) * gg);
      }
      return;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < n; ++i) {
        const C x = static_cast<C>(a[i]);
        const C y = static_cast<C>(b[i]);
        const C gg = static_cast<C>(g[i]);
        ga[i] = static_cast<real>((C{1} / y) * gg);
        gb[i] = static_cast<real>((-x / (y * y)) * gg);
      }
      return;
  }
}

template <typename C>
void unary_ref(UnaryOp op, const real* x, real* out, real c, std::int64_t n) {
  const C cc = static_cast<C>(c);
  switch (op) {
    case UnaryOp::kNeg:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(-static_cast<C>(x[i]));
      }
      return;
    case UnaryOp::kScale:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(cc * static_cast<C>(x[i]));
      }
      return;
    case UnaryOp::kAddScalar:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(static_cast<C>(x[i]) + cc);
      }
      return;
    case UnaryOp::kPow:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(std::pow(static_cast<C>(x[i]), cc));
      }
      return;
    case UnaryOp::kSquare:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        out[i] = static_cast<real>(v * v);
      }
      return;
    case UnaryOp::kSqrt:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(std::sqrt(static_cast<C>(x[i])));
      }
      return;
    case UnaryOp::kExp:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(std::exp(static_cast<C>(x[i])));
      }
      return;
    case UnaryOp::kLog:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(std::log(static_cast<C>(x[i])));
      }
      return;
    case UnaryOp::kAbs:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(std::abs(static_cast<C>(x[i])));
      }
      return;
    case UnaryOp::kClampMin:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        out[i] = static_cast<real>(v > cc ? v : cc);
      }
      return;
    case UnaryOp::kRelu:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        out[i] = static_cast<real>(v > 0 ? v : C{0});
      }
      return;
    case UnaryOp::kSigmoid:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(sigmoid_val_ref(static_cast<C>(x[i])));
      }
      return;
    case UnaryOp::kTanh:
      for (std::int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<real>(std::tanh(static_cast<C>(x[i])));
      }
      return;
    case UnaryOp::kSilu:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        out[i] = static_cast<real>(v * sigmoid_val_ref(v));
      }
      return;
    case UnaryOp::kSoftplus:
      for (std::int64_t i = 0; i < n; ++i) {
        // Stable softplus: max(v, 0) + log1p(exp(-|v|)).
        const C v = static_cast<C>(x[i]);
        out[i] = static_cast<real>((v > 0 ? v : C{0}) +
                                   std::log1p(std::exp(-std::abs(v))));
      }
      return;
  }
}

template <typename C>
void unary_bwd_ref(UnaryOp op, const real* x, const real* g, real* gx, real c,
                   std::int64_t n) {
  const C cc = static_cast<C>(c);
  switch (op) {
    case UnaryOp::kNeg:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>(C{-1} * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kScale:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>(cc * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kAddScalar:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>(C{1} * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kPow:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        gx[i] = static_cast<real>((cc * std::pow(v, cc - C{1})) *
                                  static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kSquare:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>((C{2} * static_cast<C>(x[i])) *
                                  static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kSqrt:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>(
            (C{0.5} / std::sqrt(static_cast<C>(x[i]))) *
            static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kExp:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>(std::exp(static_cast<C>(x[i])) *
                                  static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kLog:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>((C{1} / static_cast<C>(x[i])) *
                                  static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kAbs:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        gx[i] = static_cast<real>(
            (v > 0 ? C{1} : (v < 0 ? C{-1} : C{0})) * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kClampMin:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        gx[i] = static_cast<real>((v > cc ? C{1} : C{0}) *
                                  static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kRelu:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        gx[i] =
            static_cast<real>((v > 0 ? C{1} : C{0}) * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kSigmoid:
      for (std::int64_t i = 0; i < n; ++i) {
        const C s = sigmoid_val_ref(static_cast<C>(x[i]));
        gx[i] = static_cast<real>((s * (C{1} - s)) * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kTanh:
      for (std::int64_t i = 0; i < n; ++i) {
        const C t = std::tanh(static_cast<C>(x[i]));
        gx[i] = static_cast<real>((C{1} - t * t) * static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kSilu:
      for (std::int64_t i = 0; i < n; ++i) {
        const C v = static_cast<C>(x[i]);
        const C s = sigmoid_val_ref(v);
        gx[i] = static_cast<real>((s * (C{1} + v * (C{1} - s))) *
                                  static_cast<C>(g[i]));
      }
      return;
    case UnaryOp::kSoftplus:
      for (std::int64_t i = 0; i < n; ++i) {
        gx[i] = static_cast<real>(sigmoid_val_ref(static_cast<C>(x[i])) *
                                  static_cast<C>(g[i]));
      }
      return;
  }
}

/// The kSilu case of unary_bwd_ref with s = sigmoid(v) read from the
/// forward's saved buffer instead of recomputed: the same expression on the
/// same C-rounded operands, so the result is bit-identical.
template <typename C>
void silu_bwd_saved_ref(const real* v, const real* s, const real* g, real* gx,
                        std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const C vv = static_cast<C>(v[i]);
    const C ss = static_cast<C>(s[i]);
    gx[i] = static_cast<real>((ss * (C{1} + vv * (C{1} - ss))) *
                              static_cast<C>(g[i]));
  }
}

// ---------------------------------------------------------------------------
// Reductions: fp64 accumulator in both flavours; C=float rounds each input.

template <typename C>
double sum_chunk_ref(const real* x, std::int64_t n) {
  double acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(static_cast<C>(x[i]));
  }
  return acc;
}

template <typename C>
void accumulate_ref(const real* src, real* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] += static_cast<real>(static_cast<C>(src[i]));
  }
}

}  // namespace
}  // namespace sgnn::kernels
