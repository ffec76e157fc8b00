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

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sgnn/tensor/kernels.hpp"

namespace sgnn::kernels {
namespace {

// ---------------------------------------------------------------------------
// GEMM. No zero-skip on `av` anywhere: 0 × Inf and 0 × NaN must propagate
// per IEEE 754 (a skip would report a finite product where a non-skipping
// backend correctly surfaces NaN).

/// The reference GEMM, and the scalar table's band kernel: rows
/// [row_begin, row_end) of g.c in the per-element order the Gemm contract
/// fixes, reading B in place (this backend never packs it). With
/// contiguous B rows, p runs outermost so each B row streams once per band;
/// otherwise (A·Bᵀ) each element is one dot product.
template <typename T>
void gemm_ref(const Gemm<T>& g, const T* /*packed_b*/,
              std::int64_t row_begin, std::int64_t row_end) {
  if (g.b_cs == 1) {
    if (!g.accumulate) {
      std::fill(g.c + row_begin * g.n, g.c + row_end * g.n, T{0});
    }
    for (std::int64_t p = 0; p < g.k; ++p) {
      const T* brow = g.b + p * g.b_rs;
      for (std::int64_t i = row_begin; i < row_end; ++i) {
        const T av = g.a[i * g.a_rs + p * g.a_cs];
        T* crow = g.c + i * g.n;
        for (std::int64_t j = 0; j < g.n; ++j) crow[j] += av * brow[j];
      }
    }
    return;
  }
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    for (std::int64_t j = 0; j < g.n; ++j) {
      T acc = g.accumulate ? g.c[i * g.n + j] : T{0};
      for (std::int64_t p = 0; p < g.k; ++p) {
        acc += g.a[i * g.a_rs + p * g.a_cs] * g.b[p * g.b_rs + j * g.b_cs];
      }
      g.c[i * g.n + j] = acc;
    }
  }
}

/// Lane vocabulary of one plain double, so code written against the SIMD
/// traits also runs in the scalar backend.
struct TraitsScalar {
  using S = double;
  using Vec = double;
  static constexpr std::int64_t W = 1;
  static void store(S* p, Vec v) { *p = v; }
  static Vec set1(S s) { return s; }
  static Vec vadd(Vec a, Vec b) { return a + b; }
  static Vec vmul(Vec a, Vec b) { return a * b; }
};

/// The compute-ceiling probe: 8 multiply chains and 4 add chains, all
/// independent, `reps` rounds entirely in registers. Each round does two
/// muls per mul chain and four adds per add chain: a GEMM's one mul per add,
/// with enough chains to hide each unit's latency (4 cycles for mul, 2 to 4
/// for add) so the pipes, not the chains, set the rate. ×1.25 then ×0.8
/// and +t then −t keep every value normal and bounded.
template <typename TR>
double mul_add_probe_impl(std::int64_t reps) {
  constexpr int kMulChains = 8;
  constexpr int kAddChains = 4;
  using S = typename TR::S;
  using Vec = typename TR::Vec;
  const Vec up = TR::set1(S{1.25});
  const Vec down = TR::set1(S{0.8});
  const Vec t = TR::set1(S{0.001});
  const Vec minus_t = TR::set1(S{-0.001});
  // Start values the compiler cannot know, so it cannot fold the chains.
  const S seed = static_cast<S>(reps % 3);
  Vec m[kMulChains];
  Vec a[kAddChains];
  for (int c = 0; c < kMulChains; ++c) {
    m[c] = TR::set1(seed + static_cast<S>(c + 1));
    if (c < kAddChains) a[c] = TR::set1(seed + static_cast<S>(c));
  }
  for (std::int64_t r = 0; r < reps; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < kMulChains; ++c) {
      m[c] = TR::vmul(TR::vmul(m[c], up), down);
    }
#pragma GCC unroll 4
    for (int c = 0; c < kAddChains; ++c) {
      a[c] = TR::vadd(TR::vadd(a[c], t), minus_t);
      a[c] = TR::vadd(TR::vadd(a[c], t), minus_t);
    }
  }
  Vec sum = a[0];
  for (int c = 0; c < kMulChains; ++c) {
    sum = TR::vadd(sum, TR::vadd(m[c], a[c % kAddChains]));
  }
  S lanes[TR::W];
  TR::store(lanes, sum);
  // A volatile store the optimizer must keep, and with it every chain.
  volatile S sink = lanes[0];
  static_cast<void>(sink);
  return 4.0 * kMulChains * TR::W * static_cast<double>(reps);
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
