// The vectorized kernel backend. On x86-64 this TU (and only this TU) is
// compiled with -mavx2 -mfma (see src/CMakeLists.txt); on AArch64 NEON is
// baseline. All vector code goes through the portable wrapper in
// simd_wrapper.hpp — no raw intrinsics here (sgnn_lint rule R6).
//
// Bit-identity with the scalar backend (see docs/kernels.md):
//   * the GEMM band kernel (A·B, Aᵀ·B and A·Bᵀ alike) keeps each output
//     element's ascending-p accumulation with separate mul+add (no FMA) —
//     bit-identical;
//   * elementwise kernels perform the same per-lane IEEE operation —
//     bit-identical; transcendentals fall back to the shared reference
//     kernels — bit-identical by construction;
//   * sum_chunk splits the reduction across lanes (deterministically,
//     independent of thread count) — documented tolerance vs. scalar.

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
// GEMM. The driver packs B once per call (kernels_internal.hpp layout) and
// hands the band kernel one panel at a time. A band walks its C rows in
// strips of kGemmMr, and a kGemmMr-row × 2-vector register tile sweeps the
// panel's tiles: every step broadcasts kGemmMr A values against two B
// vectors read sequentially from packed memory. The arithmetic is the
// reference's: each C element starts from zero (from C when accumulating,
// which every panel after the first does) and adds ascending p with
// separate mul+add, and the register→memory round trip between panels is
// exact. Columns past the last whole tile take kGemmMr dot products at a
// time in the same order; a partial strip takes the reference kernel.

/// C rows [0, kGemmMr) × 2 vectors at c (row stride ldc) over a panel of
/// depth pc: A(r, p) = a[r·a_rs + p·a_cs], `tile` the packed B rows.
template <typename TR>
void gemm_tile(const typename TR::S* a, std::int64_t a_rs, std::int64_t a_cs,
               const typename TR::S* tile, typename TR::S* c, std::int64_t ldc,
               std::int64_t pc, bool from_zero) {
  using Vec = typename TR::Vec;
  constexpr std::int64_t nr = 2 * TR::W;
  Vec acc[kGemmMr][2];
#pragma GCC unroll 4
  for (std::int64_t r = 0; r < kGemmMr; ++r) {
    acc[r][0] = from_zero ? TR::zero() : TR::load(c + r * ldc);
    acc[r][1] = from_zero ? TR::zero() : TR::load(c + r * ldc + TR::W);
  }
  for (std::int64_t p = 0; p < pc; ++p) {
    const Vec b0 = TR::load(tile + p * nr);
    const Vec b1 = TR::load(tile + p * nr + TR::W);
#pragma GCC unroll 4
    for (std::int64_t r = 0; r < kGemmMr; ++r) {
      const Vec av = TR::set1(a[r * a_rs + p * a_cs]);
      acc[r][0] = TR::vadd(acc[r][0], TR::vmul(av, b0));
      acc[r][1] = TR::vadd(acc[r][1], TR::vmul(av, b1));
    }
  }
#pragma GCC unroll 4
  for (std::int64_t r = 0; r < kGemmMr; ++r) {
    TR::store(c + r * ldc, acc[r][0]);
    TR::store(c + r * ldc + TR::W, acc[r][1]);
  }
}

/// Columns [col_begin, col_end) of C rows [i, i + kGemmMr): one column at a
/// time, kGemmMr independent reference-order dot products at once. The
/// path for outputs narrower than a tile and for the column tail.
template <typename S>
void gemm_dots(const Gemm<S>& g, std::int64_t i, std::int64_t col_begin,
               std::int64_t col_end) {
  const S* a = g.a + i * g.a_rs;
  S* c = g.c + i * g.n;
  for (std::int64_t j = col_begin; j < col_end; ++j) {
    S acc[kGemmMr];
    for (std::int64_t r = 0; r < kGemmMr; ++r) {
      acc[r] = g.accumulate ? c[r * g.n + j] : S{0};
    }
    for (std::int64_t p = 0; p < g.k; ++p) {
      const S bv = g.b[p * g.b_rs + j * g.b_cs];
#pragma GCC unroll 4
      for (std::int64_t r = 0; r < kGemmMr; ++r) {
        acc[r] += a[r * g.a_rs + p * g.a_cs] * bv;
      }
    }
    for (std::int64_t r = 0; r < kGemmMr; ++r) c[r * g.n + j] = acc[r];
  }
}

/// Rows [row_begin, row_end) of one panel of g, A read in place.
template <typename TR>
void gemm_rows_vec(const Gemm<typename TR::S>& g,
                   const typename TR::S* packed_b, std::int64_t row_begin,
                   std::int64_t row_end) {
  constexpr std::int64_t nr = 2 * TR::W;
  const std::int64_t n_full = g.n - g.n % nr;
  const std::int64_t strip_end =
      row_begin + (row_end - row_begin) / kGemmMr * kGemmMr;
  for (std::int64_t i = row_begin; i < strip_end; i += kGemmMr) {
    for (std::int64_t j0 = 0; j0 < n_full; j0 += nr) {
      gemm_tile<TR>(g.a + i * g.a_rs, g.a_rs, g.a_cs, packed_b + j0 * g.k,
                    g.c + i * g.n + j0, g.n, g.k, !g.accumulate);
    }
    gemm_dots(g, i, n_full, g.n);
  }
  gemm_ref(g, packed_b, strip_end, row_end);
}

// ---------------------------------------------------------------------------
// Elementwise: the same IEEE operation per lane → bit-identical to the
// reference. Binary ops, sums and accumulates take both dtypes through the
// rounding R; the multi-op and transcendental kernels are fp64 only, and
// take the reference path for what they do not vectorize.

/// The fp64 rounding: double lanes as they are.
struct KeepF64 {
  using C = double;
  static sd::vd round(sd::vd v) { return v; }
};

/// The fp32 rounding: each double lane rounded to float precision, the
/// reference's (double)(float) on every operand and result.
struct RoundF32 {
  using C = float;
  static sd::vd round(sd::vd v) { return sd::vd_round_f32(v); }
};

/// binary_lanes' vocabulary over double lanes, rounded by R on load and
/// on store.
template <typename R>
struct VecLanes {
  using Vec = sd::vd;
  static constexpr std::int64_t W = sd::kVD;
  static Vec load(const real* p) { return R::round(sd::vd_load(p)); }
  static Vec splat(real s) { return R::round(sd::vd_set1(s)); }
  static void store(real* p, Vec v) { sd::vd_store(p, R::round(v)); }
  static Vec vadd(Vec a, Vec b) { return sd::vd_add(a, b); }
  static Vec vsub(Vec a, Vec b) { return sd::vd_sub(a, b); }
  static Vec vmul(Vec a, Vec b) { return sd::vd_mul(a, b); }
  static Vec vdiv(Vec a, Vec b) { return sd::vd_div(a, b); }
};

// Under fp32 this is (double)((float)x ∘ (float)y), computed in double
// lanes. The double operation on float-rounded inputs is exact for +, −, ×
// (≤ 49 significant bits) and an innocuous double rounding for ÷
// (53 ≥ 2·24 + 2), so rounding the double result back to float precision
// yields exactly the float operation — bit-identical to the reference.
template <typename R>
void binary_simd(BinaryOp op, const real* a, const real* b, real* out,
                 std::int64_t n, Broadcast scalar) {
  const std::int64_t nv = n - n % sd::kVD;
  binary_forms<VecLanes<R>>(op, a, b, out, nv, scalar);
  if (nv < n) {
    binary_ref<typename R::C>(op, scalar == Broadcast::kA ? a : a + nv,
                              scalar == Broadcast::kB ? b : b + nv, out + nv,
                              n - nv, scalar);
  }
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

template <typename R>
double sum_chunk_simd(const real* x, std::int64_t n) {
  constexpr std::int64_t pw = 2 * sd::kVD;
  const std::int64_t nv = n - n % pw;
  sd::vd acc0 = sd::vd_zero();
  sd::vd acc1 = sd::vd_zero();
  for (std::int64_t i = 0; i < nv; i += pw) {
    acc0 = sd::vd_add(acc0, R::round(sd::vd_load(x + i)));
    acc1 = sd::vd_add(acc1, R::round(sd::vd_load(x + i + sd::kVD)));
  }
  double lanes0[sd::kVD];
  double lanes1[sd::kVD];
  sd::vd_store(lanes0, acc0);
  sd::vd_store(lanes1, acc1);
  double acc = 0;
  for (std::int64_t l = 0; l < sd::kVD; ++l) acc += lanes0[l];
  for (std::int64_t l = 0; l < sd::kVD; ++l) acc += lanes1[l];
  for (std::int64_t i = nv; i < n; ++i) {
    acc += static_cast<double>(static_cast<typename R::C>(x[i]));
  }
  return acc;
}

template <typename R>
void accumulate_simd(const real* src, real* dst, std::int64_t n) {
  const std::int64_t nv = n - n % sd::kVD;
  for (std::int64_t i = 0; i < nv; i += sd::kVD) {
    sd::vd_store(dst + i, sd::vd_add(sd::vd_load(dst + i),
                                     R::round(sd::vd_load(src + i))));
  }
  if (nv < n) accumulate_ref<typename R::C>(src + nv, dst + nv, n - nv);
}

}  // namespace

bool simd_table_vectorized() { return true; }

const KernelTable& simd_table() {
  static const KernelTable table = {
      /*gemm_rows_f64=*/gemm_rows_vec<TraitsD>,
      /*gemm_rows_f32=*/gemm_rows_vec<TraitsW>,
      /*gemm_nr_f64=*/2 * TraitsD::W,
      /*gemm_nr_f32=*/2 * TraitsW::W,
      /*elementwise=*/
      {ElementwiseKernels{binary_simd<KeepF64>, binary_bwd_simd_f64,
                          unary_simd_f64, unary_bwd_simd_f64,
                          silu_bwd_saved_simd_f64, sum_chunk_simd<KeepF64>,
                          accumulate_simd<KeepF64>},
       // A multi-op expression in double lanes is not bit-identical to
       // float arithmetic, so those kernels stay on the float reference.
       ElementwiseKernels{binary_simd<RoundF32>, binary_bwd_ref<float>,
                          unary_ref<float>, unary_bwd_ref<float>,
                          silu_bwd_saved_ref<float>,
                          sum_chunk_simd<RoundF32>,
                          accumulate_simd<RoundF32>}},
      /*mul_add_probe=*/mul_add_probe_impl<TraitsD>,
  };
  return table;
}

#else  // !SGNN_SIMD_ANY: no vector ISA compiled in — the reference table.

bool simd_table_vectorized() { return false; }

const KernelTable& simd_table() { return scalar_table(); }

#endif

}  // namespace sgnn::kernels
