// The vectorized kernel backend. On x86-64 this TU (and only this TU) is
// compiled with -mavx2 -mfma (see src/CMakeLists.txt); on AArch64 NEON is
// baseline. All vector code goes through the portable wrapper in
// simd_wrapper.hpp — no raw intrinsics here (sgnn_lint rule R6).
//
// Bit-identity with the scalar backend (see docs/kernels.md):
//   * matmul_rows / matmul_at_b_band keep each output element's ascending-p
//     accumulation with separate mul+add (no FMA) — bit-identical.
//   * elementwise kernels perform the same per-lane IEEE operation —
//     bit-identical; transcendentals fall back to the shared reference
//     kernels — bit-identical by construction.
//   * matmul_a_bt_rows and sum_chunk split the reduction across lanes
//     (deterministically, independent of thread count) — documented
//     tolerance vs. scalar.

#include <vector>

#include "kernels_impl.hpp"
#include "kernels_internal.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "simd_wrapper.hpp"

namespace sgnn::kernels {

#if defined(SGNN_SIMD_ANY)

namespace {

namespace sd = simd;

/// Lane vocabulary shared by the fp64 kernels (double lanes) and the fp32
/// matmul kernels (float lanes over the scratch panels).
struct TraitsD {
  using S = real;
  using Vec = sd::vd;
  static constexpr std::int64_t W = sd::kVD;
  static Vec load(const S* p) { return sd::vd_load(p); }
  static void store(S* p, Vec v) { sd::vd_store(p, v); }
  static Vec set1(S s) { return sd::vd_set1(s); }
  static Vec zero() { return sd::vd_zero(); }
  static Vec vadd(Vec a, Vec b) { return sd::vd_add(a, b); }
  static Vec vmul(Vec a, Vec b) { return sd::vd_mul(a, b); }
};

struct TraitsW {
  using S = float;
  using Vec = sd::vw;
  static constexpr std::int64_t W = sd::kVW;
  static Vec load(const S* p) { return sd::vw_load(p); }
  static void store(S* p, Vec v) { sd::vw_store(p, v); }
  static Vec set1(S s) { return sd::vw_set1(s); }
  static Vec zero() { return sd::vw_zero(); }
  static Vec vadd(Vec a, Vec b) { return sd::vw_add(a, b); }
  static Vec vmul(Vec a, Vec b) { return sd::vw_mul(a, b); }
};

// ---------------------------------------------------------------------------
// Matmul. GEBP structure: the reduction dimension is blocked into kKc-row
// panels of B, and each panel's vector columns are packed once into a
// j0-blocked contiguous scratch (tile t owns packed[t*kKc*jw ..]). The
// 2-row × 2-vector register-tile sweep then reads packed memory
// sequentially — without packing the p-sweep walks B with a row-sized
// stride, which the page-local hardware prefetcher cannot follow once rows
// pass ~1KB, and the kernel loses to the streaming scalar loop. Packing
// does NOT change the arithmetic: every C element still accumulates over
// ascending p (panels ascending, rows ascending within a panel) with
// separate mul+add steps, and the register→memory round trip between
// panels is exact — bit-identical to the reference kernel. Row and column
// remainders run the scalar reference arithmetic.

template <typename TR>
void matmul_rows_vec(const typename TR::S* a, const typename TR::S* b,
                     typename TR::S* c, std::int64_t k, std::int64_t n,
                     std::int64_t row_begin, std::int64_t row_end) {
  using S = typename TR::S;
  using Vec = typename TR::Vec;
  constexpr std::int64_t jw = 2 * TR::W;
  constexpr std::int64_t kKc = 64;  // B panel rows; panel fits L2 easily
  const std::int64_t n_vec = n - n % jw;
  const std::int64_t tiles = n_vec / jw;
  const std::int64_t pair_end = row_begin + (row_end - row_begin) / 2 * 2;
  std::vector<S> packed(static_cast<std::size_t>(kKc * n_vec));
  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t pc = p0 + kKc < k ? kKc : k - p0;
    for (std::int64_t pp = 0; pp < pc; ++pp) {
      const S* brow = b + (p0 + pp) * n;
      for (std::int64_t t = 0; t < tiles; ++t) {
        S* dst = packed.data() + t * kKc * jw + pp * jw;
        for (std::int64_t l = 0; l < jw; ++l) dst[l] = brow[t * jw + l];
      }
    }
    for (std::int64_t i = row_begin; i < pair_end; i += 2) {
      const S* arow0 = a + i * k + p0;
      const S* arow1 = arow0 + k;
      S* crow0 = c + i * n;
      S* crow1 = crow0 + n;
      for (std::int64_t t = 0; t < tiles; ++t) {
        const std::int64_t j0 = t * jw;
        Vec acc00, acc01, acc10, acc11;
        if (p0 == 0) {
          acc00 = TR::zero();
          acc01 = TR::zero();
          acc10 = TR::zero();
          acc11 = TR::zero();
        } else {
          acc00 = TR::load(crow0 + j0);
          acc01 = TR::load(crow0 + j0 + TR::W);
          acc10 = TR::load(crow1 + j0);
          acc11 = TR::load(crow1 + j0 + TR::W);
        }
        const S* pb = packed.data() + t * kKc * jw;
        for (std::int64_t pp = 0; pp < pc; ++pp) {
          const Vec av0 = TR::set1(arow0[pp]);
          const Vec av1 = TR::set1(arow1[pp]);
          const Vec b0 = TR::load(pb + pp * jw);
          const Vec b1 = TR::load(pb + pp * jw + TR::W);
          acc00 = TR::vadd(acc00, TR::vmul(av0, b0));
          acc01 = TR::vadd(acc01, TR::vmul(av0, b1));
          acc10 = TR::vadd(acc10, TR::vmul(av1, b0));
          acc11 = TR::vadd(acc11, TR::vmul(av1, b1));
        }
        TR::store(crow0 + j0, acc00);
        TR::store(crow0 + j0 + TR::W, acc01);
        TR::store(crow1 + j0, acc10);
        TR::store(crow1 + j0 + TR::W, acc11);
      }
      for (std::int64_t j = n_vec; j < n; ++j) {
        S s0 = p0 == 0 ? S{0} : crow0[j];
        S s1 = p0 == 0 ? S{0} : crow1[j];
        for (std::int64_t pp = 0; pp < pc; ++pp) {
          s0 += arow0[pp] * b[(p0 + pp) * n + j];
          s1 += arow1[pp] * b[(p0 + pp) * n + j];
        }
        crow0[j] = s0;
        crow1[j] = s1;
      }
    }
  }
  if (pair_end < row_end) matmul_rows_ref<S>(a, b, c, k, n, pair_end, row_end);
}

// A^T·B over a band of C rows: same packed-panel GEBP structure as
// matmul_rows_vec (the reduction runs over m instead of k, and the
// broadcast operands come from A columns) — bit-identical to the
// reference kernel for the same reason.
template <typename TR>
void matmul_at_b_band_vec(const typename TR::S* a, const typename TR::S* b,
                          typename TR::S* c, std::int64_t m, std::int64_t k,
                          std::int64_t n, std::int64_t row_begin,
                          std::int64_t row_end) {
  using S = typename TR::S;
  using Vec = typename TR::Vec;
  constexpr std::int64_t jw = 2 * TR::W;
  constexpr std::int64_t kKc = 64;  // same packed-panel shape as matmul_rows
  const std::int64_t n_vec = n - n % jw;
  const std::int64_t tiles = n_vec / jw;
  const std::int64_t pair_end = row_begin + (row_end - row_begin) / 2 * 2;
  std::vector<S> packed(static_cast<std::size_t>(kKc * n_vec));
  for (std::int64_t p0 = 0; p0 < m; p0 += kKc) {
    const std::int64_t pc = p0 + kKc < m ? kKc : m - p0;
    for (std::int64_t pp = 0; pp < pc; ++pp) {
      const S* brow = b + (p0 + pp) * n;
      for (std::int64_t t = 0; t < tiles; ++t) {
        S* dst = packed.data() + t * kKc * jw + pp * jw;
        for (std::int64_t l = 0; l < jw; ++l) dst[l] = brow[t * jw + l];
      }
    }
    for (std::int64_t i = row_begin; i < pair_end; i += 2) {
      S* crow0 = c + i * n;
      S* crow1 = crow0 + n;
      for (std::int64_t t = 0; t < tiles; ++t) {
        const std::int64_t j0 = t * jw;
        Vec acc00, acc01, acc10, acc11;
        if (p0 == 0) {
          acc00 = TR::zero();
          acc01 = TR::zero();
          acc10 = TR::zero();
          acc11 = TR::zero();
        } else {
          acc00 = TR::load(crow0 + j0);
          acc01 = TR::load(crow0 + j0 + TR::W);
          acc10 = TR::load(crow1 + j0);
          acc11 = TR::load(crow1 + j0 + TR::W);
        }
        const S* pb = packed.data() + t * kKc * jw;
        for (std::int64_t pp = 0; pp < pc; ++pp) {
          const Vec av0 = TR::set1(a[(p0 + pp) * k + i]);
          const Vec av1 = TR::set1(a[(p0 + pp) * k + i + 1]);
          const Vec b0 = TR::load(pb + pp * jw);
          const Vec b1 = TR::load(pb + pp * jw + TR::W);
          acc00 = TR::vadd(acc00, TR::vmul(av0, b0));
          acc01 = TR::vadd(acc01, TR::vmul(av0, b1));
          acc10 = TR::vadd(acc10, TR::vmul(av1, b0));
          acc11 = TR::vadd(acc11, TR::vmul(av1, b1));
        }
        TR::store(crow0 + j0, acc00);
        TR::store(crow0 + j0 + TR::W, acc01);
        TR::store(crow1 + j0, acc10);
        TR::store(crow1 + j0 + TR::W, acc11);
      }
      for (std::int64_t j = n_vec; j < n; ++j) {
        S s0 = p0 == 0 ? S{0} : crow0[j];
        S s1 = p0 == 0 ? S{0} : crow1[j];
        for (std::int64_t pp = 0; pp < pc; ++pp) {
          s0 += a[(p0 + pp) * k + i] * b[(p0 + pp) * n + j];
          s1 += a[(p0 + pp) * k + i + 1] * b[(p0 + pp) * n + j];
        }
        crow0[j] = s0;
        crow1[j] = s1;
      }
    }
  }
  if (pair_end < row_end) {
    matmul_at_b_band_ref<S>(a, b, c, m, k, n, pair_end, row_end);
  }
}

/// Dot-product form: two lane accumulators combined lane-by-lane in a fixed
/// order, then the scalar remainder — deterministic, but a different
/// reduction order than the scalar kernel (documented tolerance).
template <typename TR>
void matmul_a_bt_rows_vec(const typename TR::S* a, const typename TR::S* b,
                          typename TR::S* c, std::int64_t n, std::int64_t k,
                          std::int64_t row_begin, std::int64_t row_end) {
  using S = typename TR::S;
  using Vec = typename TR::Vec;
  constexpr std::int64_t pw = 2 * TR::W;
  const std::int64_t n_vec = n - n % pw;
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const S* arow = a + i * n;
    S* crow = c + i * k;
    for (std::int64_t j = 0; j < k; ++j) {
      const S* brow = b + j * n;
      Vec acc0 = TR::zero();
      Vec acc1 = TR::zero();
      for (std::int64_t p = 0; p < n_vec; p += pw) {
        acc0 = TR::vadd(acc0, TR::vmul(TR::load(arow + p), TR::load(brow + p)));
        acc1 = TR::vadd(acc1, TR::vmul(TR::load(arow + p + TR::W),
                                     TR::load(brow + p + TR::W)));
      }
      S lanes0[TR::W];
      S lanes1[TR::W];
      TR::store(lanes0, acc0);
      TR::store(lanes1, acc1);
      S acc = 0;
      for (std::int64_t l = 0; l < TR::W; ++l) acc += lanes0[l];
      for (std::int64_t l = 0; l < TR::W; ++l) acc += lanes1[l];
      for (std::int64_t p = n_vec; p < n; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise, fp64: the same IEEE operation per lane → bit-identical to the
// reference. Transcendentals take the reference path wholesale.

void binary_simd_f64(BinaryOp op, const real* a, const real* b, real* out,
                     std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_add(sd::vd_load(a + i),
                                         sd::vd_load(b + i)));
      }
      break;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_sub(sd::vd_load(a + i),
                                         sd::vd_load(b + i)));
      }
      break;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_mul(sd::vd_load(a + i),
                                         sd::vd_load(b + i)));
      }
      break;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_div(sd::vd_load(a + i),
                                         sd::vd_load(b + i)));
      }
      break;
  }
  if (nv < n) binary_ref<double>(op, a + nv, b + nv, out + nv, n - nv);
}

// Fp32 flavour: (double)((float)x ∘ (float)y), computed in double lanes.
// The double operation on float-rounded inputs is exact for +, −, × (≤ 49
// significant bits) and an innocuous double rounding for ÷ (53 ≥ 2·24 + 2),
// so rounding the double result back to float precision yields exactly the
// float operation — bit-identical to the scalar reference.
void binary_simd_f32(BinaryOp op, const real* a, const real* b, real* out,
                     std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    const sd::vd x = sd::vd_round_f32(sd::vd_load(a + i));
    const sd::vd y = sd::vd_round_f32(sd::vd_load(b + i));
    sd::vd r = sd::vd_zero();
    switch (op) {
      case BinaryOp::kAdd:
        r = sd::vd_add(x, y);
        break;
      case BinaryOp::kSub:
        r = sd::vd_sub(x, y);
        break;
      case BinaryOp::kMul:
        r = sd::vd_mul(x, y);
        break;
      case BinaryOp::kDiv:
        r = sd::vd_div(x, y);
        break;
    }
    sd::vd_store(out + i, sd::vd_round_f32(r));
  }
  if (nv < n) binary_ref<float>(op, a + nv, b + nv, out + nv, n - nv);
}

void binary_scalar_l_simd_f64(BinaryOp op, real a, const real* b, real* out,
                              std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  const sd::vd av = sd::vd_set1(a);
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_add(av, sd::vd_load(b + i)));
      }
      break;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_sub(av, sd::vd_load(b + i)));
      }
      break;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_mul(av, sd::vd_load(b + i)));
      }
      break;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_div(av, sd::vd_load(b + i)));
      }
      break;
  }
  if (nv < n) binary_scalar_l_ref<double>(op, a, b + nv, out + nv, n - nv);
}

void binary_scalar_l_simd_f32(BinaryOp op, real a, const real* b, real* out,
                              std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  const sd::vd av =
      sd::vd_set1(static_cast<double>(static_cast<float>(a)));
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    const sd::vd y = sd::vd_round_f32(sd::vd_load(b + i));
    sd::vd r = sd::vd_zero();
    switch (op) {
      case BinaryOp::kAdd:
        r = sd::vd_add(av, y);
        break;
      case BinaryOp::kSub:
        r = sd::vd_sub(av, y);
        break;
      case BinaryOp::kMul:
        r = sd::vd_mul(av, y);
        break;
      case BinaryOp::kDiv:
        r = sd::vd_div(av, y);
        break;
    }
    sd::vd_store(out + i, sd::vd_round_f32(r));
  }
  if (nv < n) binary_scalar_l_ref<float>(op, a, b + nv, out + nv, n - nv);
}

void binary_scalar_r_simd_f64(BinaryOp op, const real* a, real b, real* out,
                              std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  const sd::vd bv = sd::vd_set1(b);
  switch (op) {
    case BinaryOp::kAdd:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_add(sd::vd_load(a + i), bv));
      }
      break;
    case BinaryOp::kSub:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_sub(sd::vd_load(a + i), bv));
      }
      break;
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_mul(sd::vd_load(a + i), bv));
      }
      break;
    case BinaryOp::kDiv:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_div(sd::vd_load(a + i), bv));
      }
      break;
  }
  if (nv < n) binary_scalar_r_ref<double>(op, a + nv, b, out + nv, n - nv);
}

void binary_scalar_r_simd_f32(BinaryOp op, const real* a, real b, real* out,
                              std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  const sd::vd bv =
      sd::vd_set1(static_cast<double>(static_cast<float>(b)));
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    const sd::vd x = sd::vd_round_f32(sd::vd_load(a + i));
    sd::vd r = sd::vd_zero();
    switch (op) {
      case BinaryOp::kAdd:
        r = sd::vd_add(x, bv);
        break;
      case BinaryOp::kSub:
        r = sd::vd_sub(x, bv);
        break;
      case BinaryOp::kMul:
        r = sd::vd_mul(x, bv);
        break;
      case BinaryOp::kDiv:
        r = sd::vd_div(x, bv);
        break;
    }
    sd::vd_store(out + i, sd::vd_round_f32(r));
  }
  if (nv < n) binary_scalar_r_ref<float>(op, a + nv, b, out + nv, n - nv);
}

void binary_bwd_simd_f64(BinaryOp op, const real* a, const real* b,
                         const real* g, real* ga, real* gb, std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  switch (op) {
    case BinaryOp::kMul:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        const sd::vd gv = sd::vd_load(g + i);
        sd::vd_store(ga + i, sd::vd_mul(sd::vd_load(b + i), gv));
        sd::vd_store(gb + i, sd::vd_mul(sd::vd_load(a + i), gv));
      }
      break;
    case BinaryOp::kDiv: {
      const sd::vd one = sd::vd_set1(1.0);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        const sd::vd x = sd::vd_load(a + i);
        const sd::vd y = sd::vd_load(b + i);
        const sd::vd gv = sd::vd_load(g + i);
        sd::vd_store(ga + i, sd::vd_mul(sd::vd_div(one, y), gv));
        sd::vd_store(
            gb + i,
            sd::vd_mul(sd::vd_div(sd::vd_neg(x), sd::vd_mul(y, y)), gv));
      }
      break;
    }
    default:
      binary_bwd_ref<double>(op, a, b, g, ga, gb, n);
      return;
  }
  if (nv < n) {
    binary_bwd_ref<double>(op, a + nv, b + nv, g + nv, ga + nv, gb + nv,
                           n - nv);
  }
}

void unary_simd_f64(UnaryOp op, const real* x, real* out, real c,
                    std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  switch (op) {
    case UnaryOp::kNeg:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_neg(sd::vd_load(x + i)));
      }
      break;
    case UnaryOp::kScale: {
      const sd::vd cv = sd::vd_set1(c);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_mul(cv, sd::vd_load(x + i)));
      }
      break;
    }
    case UnaryOp::kAddScalar: {
      const sd::vd cv = sd::vd_set1(c);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_add(sd::vd_load(x + i), cv));
      }
      break;
    }
    case UnaryOp::kSquare:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        const sd::vd v = sd::vd_load(x + i);
        sd::vd_store(out + i, sd::vd_mul(v, v));
      }
      break;
    case UnaryOp::kSqrt:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_sqrt(sd::vd_load(x + i)));
      }
      break;
    case UnaryOp::kAbs:
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_abs(sd::vd_load(x + i)));
      }
      break;
    case UnaryOp::kClampMin: {
      const sd::vd cv = sd::vd_set1(c);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_max_strict(sd::vd_load(x + i), cv));
      }
      break;
    }
    case UnaryOp::kRelu: {
      const sd::vd zv = sd::vd_zero();
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(out + i, sd::vd_max_strict(sd::vd_load(x + i), zv));
      }
      break;
    }
    default:
      unary_ref<double>(op, x, out, c, n);
      return;
  }
  if (nv < n) unary_ref<double>(op, x + nv, out + nv, c, n - nv);
}

void unary_bwd_simd_f64(UnaryOp op, const real* x, const real* g, real* gx,
                        real c, std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  switch (op) {
    case UnaryOp::kNeg: {
      const sd::vd m1 = sd::vd_set1(-1.0);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(gx + i, sd::vd_mul(m1, sd::vd_load(g + i)));
      }
      break;
    }
    case UnaryOp::kScale: {
      const sd::vd cv = sd::vd_set1(c);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(gx + i, sd::vd_mul(cv, sd::vd_load(g + i)));
      }
      break;
    }
    case UnaryOp::kAddScalar: {
      const sd::vd one = sd::vd_set1(1.0);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(gx + i, sd::vd_mul(one, sd::vd_load(g + i)));
      }
      break;
    }
    case UnaryOp::kSquare: {
      const sd::vd two = sd::vd_set1(2.0);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(gx + i,
                     sd::vd_mul(sd::vd_mul(two, sd::vd_load(x + i)),
                                sd::vd_load(g + i)));
      }
      break;
    }
    case UnaryOp::kSqrt: {
      const sd::vd half = sd::vd_set1(0.5);
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        sd::vd_store(gx + i,
                     sd::vd_mul(sd::vd_div(half, sd::vd_sqrt(sd::vd_load(x + i))),
                                sd::vd_load(g + i)));
      }
      break;
    }
    case UnaryOp::kClampMin: {
      const sd::vd cv = sd::vd_set1(c);
      const sd::vd one = sd::vd_set1(1.0);
      const sd::vd zero = sd::vd_zero();
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        const sd::vm mask = sd::vd_gt(sd::vd_load(x + i), cv);
        sd::vd_store(gx + i, sd::vd_mul(sd::vd_select(mask, one, zero),
                                        sd::vd_load(g + i)));
      }
      break;
    }
    case UnaryOp::kRelu: {
      const sd::vd one = sd::vd_set1(1.0);
      const sd::vd zero = sd::vd_zero();
      for (std::int64_t i = 0; i < nv; i += sd::kVD) {
        const sd::vm mask = sd::vd_gt(sd::vd_load(x + i), zero);
        sd::vd_store(gx + i, sd::vd_mul(sd::vd_select(mask, one, zero),
                                        sd::vd_load(g + i)));
      }
      break;
    }
    default:
      unary_bwd_ref<double>(op, x, g, gx, c, n);
      return;
  }
  if (nv < n) unary_bwd_ref<double>(op, x + nv, g + nv, gx + nv, c, n - nv);
}

// No transcendental left once s is saved, so this one vectorizes: the same
// mul/sub/add sequence per lane as the reference.
void silu_bwd_saved_simd_f64(const real* v, const real* s, const real* g,
                             real* gx, std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  const sd::vd one = sd::vd_set1(1.0);
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    const sd::vd vv = sd::vd_load(v + i);
    const sd::vd ss = sd::vd_load(s + i);
    const sd::vd d =
        sd::vd_mul(ss, sd::vd_add(one, sd::vd_mul(vv, sd::vd_sub(one, ss))));
    sd::vd_store(gx + i, sd::vd_mul(d, sd::vd_load(g + i)));
  }
  if (nv < n) {
    silu_bwd_saved_ref<double>(v + nv, s + nv, g + nv, gx + nv, n - nv);
  }
}

// ---------------------------------------------------------------------------
// Reductions.

double sum_chunk_simd_f64(const real* x, std::int64_t n) {
  constexpr std::int64_t pw = 2 * sd::kVD;
  const std::int64_t nv = n - n % pw;
  sd::vd acc0 = sd::vd_zero();
  sd::vd acc1 = sd::vd_zero();
  for (std::int64_t i = 0; i < nv; i += pw) {
    acc0 = sd::vd_add(acc0, sd::vd_load(x + i));
    acc1 = sd::vd_add(acc1, sd::vd_load(x + i + sd::kVD));
  }
  double lanes0[sd::kVD];
  double lanes1[sd::kVD];
  sd::vd_store(lanes0, acc0);
  sd::vd_store(lanes1, acc1);
  double acc = 0;
  for (std::int64_t l = 0; l < sd::kVD; ++l) acc += lanes0[l];
  for (std::int64_t l = 0; l < sd::kVD; ++l) acc += lanes1[l];
  for (std::int64_t i = nv; i < n; ++i) acc += x[i];
  return acc;
}

double sum_chunk_simd_f32(const real* x, std::int64_t n) {
  constexpr std::int64_t pw = 2 * sd::kVD;
  const std::int64_t nv = n - n % pw;
  sd::vd acc0 = sd::vd_zero();
  sd::vd acc1 = sd::vd_zero();
  for (std::int64_t i = 0; i < nv; i += pw) {
    acc0 = sd::vd_add(acc0, sd::vd_round_f32(sd::vd_load(x + i)));
    acc1 = sd::vd_add(acc1, sd::vd_round_f32(sd::vd_load(x + i + sd::kVD)));
  }
  double lanes0[sd::kVD];
  double lanes1[sd::kVD];
  sd::vd_store(lanes0, acc0);
  sd::vd_store(lanes1, acc1);
  double acc = 0;
  for (std::int64_t l = 0; l < sd::kVD; ++l) acc += lanes0[l];
  for (std::int64_t l = 0; l < sd::kVD; ++l) acc += lanes1[l];
  for (std::int64_t i = nv; i < n; ++i) {
    acc += static_cast<double>(static_cast<float>(x[i]));
  }
  return acc;
}

void accumulate_simd_f64(const real* src, real* dst, std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    sd::vd_store(dst + i, sd::vd_add(sd::vd_load(dst + i),
                                     sd::vd_load(src + i)));
  }
  if (nv < n) accumulate_ref<double>(src + nv, dst + nv, n - nv);
}

void accumulate_simd_f32(const real* src, real* dst, std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    sd::vd_store(dst + i,
                 sd::vd_add(sd::vd_load(dst + i),
                            sd::vd_round_f32(sd::vd_load(src + i))));
  }
  if (nv < n) accumulate_ref<float>(src + nv, dst + nv, n - nv);
}

}  // namespace

bool simd_table_vectorized() { return true; }

const KernelTable& simd_table() {
  static const KernelTable table = {
      /*matmul_rows_f64=*/matmul_rows_vec<TraitsD>,
      /*matmul_rows_f32=*/matmul_rows_vec<TraitsW>,
      /*matmul_at_b_band_f64=*/matmul_at_b_band_vec<TraitsD>,
      /*matmul_at_b_band_f32=*/matmul_at_b_band_vec<TraitsW>,
      /*matmul_a_bt_rows_f64=*/matmul_a_bt_rows_vec<TraitsD>,
      /*matmul_a_bt_rows_f32=*/matmul_a_bt_rows_vec<TraitsW>,
      /*binary_f64=*/binary_simd_f64,
      /*binary_f32=*/binary_simd_f32,
      /*binary_scalar_l_f64=*/binary_scalar_l_simd_f64,
      /*binary_scalar_l_f32=*/binary_scalar_l_simd_f32,
      /*binary_scalar_r_f64=*/binary_scalar_r_simd_f64,
      /*binary_scalar_r_f32=*/binary_scalar_r_simd_f32,
      /*binary_bwd_f64=*/binary_bwd_simd_f64,
      /*binary_bwd_f32=*/binary_bwd_ref<float>,
      /*unary_f64=*/unary_simd_f64,
      /*unary_f32=*/unary_ref<float>,
      /*unary_bwd_f64=*/unary_bwd_simd_f64,
      /*unary_bwd_f32=*/unary_bwd_ref<float>,
      /*silu_bwd_saved_f64=*/silu_bwd_saved_simd_f64,
      /*silu_bwd_saved_f32=*/silu_bwd_saved_ref<float>,
      /*sum_chunk_f64=*/sum_chunk_simd_f64,
      /*sum_chunk_f32=*/sum_chunk_simd_f32,
      /*accumulate_f64=*/accumulate_simd_f64,
      /*accumulate_f32=*/accumulate_simd_f32,
  };
  return table;
}

#else  // !SGNN_SIMD_ANY: no vector ISA compiled in — alias the reference.

bool simd_table_vectorized() { return false; }

const KernelTable& simd_table() {
  static const KernelTable table = {
      /*matmul_rows_f64=*/matmul_rows_ref<real>,
      /*matmul_rows_f32=*/matmul_rows_ref<float>,
      /*matmul_at_b_band_f64=*/matmul_at_b_band_ref<real>,
      /*matmul_at_b_band_f32=*/matmul_at_b_band_ref<float>,
      /*matmul_a_bt_rows_f64=*/matmul_a_bt_rows_ref<real>,
      /*matmul_a_bt_rows_f32=*/matmul_a_bt_rows_ref<float>,
      /*binary_f64=*/binary_ref<double>,
      /*binary_f32=*/binary_ref<float>,
      /*binary_scalar_l_f64=*/binary_scalar_l_ref<double>,
      /*binary_scalar_l_f32=*/binary_scalar_l_ref<float>,
      /*binary_scalar_r_f64=*/binary_scalar_r_ref<double>,
      /*binary_scalar_r_f32=*/binary_scalar_r_ref<float>,
      /*binary_bwd_f64=*/binary_bwd_ref<double>,
      /*binary_bwd_f32=*/binary_bwd_ref<float>,
      /*unary_f64=*/unary_ref<double>,
      /*unary_f32=*/unary_ref<float>,
      /*unary_bwd_f64=*/unary_bwd_ref<double>,
      /*unary_bwd_f32=*/unary_bwd_ref<float>,
      /*silu_bwd_saved_f64=*/silu_bwd_saved_ref<double>,
      /*silu_bwd_saved_f32=*/silu_bwd_saved_ref<float>,
      /*sum_chunk_f64=*/sum_chunk_ref<double>,
      /*sum_chunk_f32=*/sum_chunk_ref<float>,
      /*accumulate_f64=*/accumulate_ref<double>,
      /*accumulate_f32=*/accumulate_ref<float>,
  };
  return table;
}

#endif

}  // namespace sgnn::kernels
