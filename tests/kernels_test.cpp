// sgnn::kernels backend layer: dispatch plumbing, the IEEE-754 matmul
// regression (no zero-skip), scalar<->SIMD agreement (every GEMM form bit
// for bit against the reference order, every elementwise kernel and binary
// operand form in both compute dtypes, the documented sum tolerance), the
// fp32 compute flavour, and the saturating KernelScope cost arithmetic.

#include "sgnn/tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/rng.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<real> random_vector(std::int64_t n, std::uint64_t seed,
                                double lo = -2.0, double hi = 2.0) {
  Rng rng(seed);
  return Tensor::uniform(Shape{n}, rng, lo, hi).to_vector();
}

/// Backends to sweep: scalar always, SIMD when this machine has it.
std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::simd_available()) {
    backends.push_back(kernels::Backend::kSimd);
  }
  return backends;
}

/// Bit patterns, so -0 vs +0 and NaN payloads count as differences.
std::vector<std::uint64_t> bit_patterns(const std::vector<real>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(std::uint64_t));
  return out;
}

/// The three GEMM forms, each computing C(rows, cols) over a reduction of
/// length `red`: C = A·B, A·Bᵀ (B stored cols × red) and Aᵀ·B (A stored
/// red × rows).
enum class GemmForm { kAB, kABt, kAtB };
constexpr GemmForm kGemmForms[] = {GemmForm::kAB, GemmForm::kABt,
                                   GemmForm::kAtB};
struct GemmShape {
  std::int64_t rows, red, cols;
};

const char* gemm_form_name(GemmForm form) {
  switch (form) {
    case GemmForm::kAB: return "A·B";
    case GemmForm::kABt: return "A·Bᵀ";
    case GemmForm::kAtB: return "Aᵀ·B";
  }
  return "?";
}

/// Offsets of A(i, p) and B(p, j) in the storage each form's driver reads.
std::size_t a_offset(GemmForm form, const GemmShape& s, std::int64_t i,
                     std::int64_t p) {
  return static_cast<std::size_t>(form == GemmForm::kAtB ? p * s.rows + i
                                                         : i * s.red + p);
}
std::size_t b_offset(GemmForm form, const GemmShape& s, std::int64_t p,
                     std::int64_t j) {
  return static_cast<std::size_t>(form == GemmForm::kABt ? j * s.red + p
                                                         : p * s.cols + j);
}

/// The Gemm contract written out: each element starts from zero (or c)
/// and adds its products in ascending p, in T arithmetic on T-rounded
/// operands, then widens. Both backends must match it bit for bit.
template <typename T>
std::vector<real> reference_gemm(GemmForm form, const GemmShape& s,
                                 const std::vector<real>& a,
                                 const std::vector<real>& b,
                                 std::vector<real> c, bool accumulate) {
  for (std::int64_t i = 0; i < s.rows; ++i) {
    for (std::int64_t j = 0; j < s.cols; ++j) {
      real& out = c[static_cast<std::size_t>(i * s.cols + j)];
      T acc = accumulate ? static_cast<T>(out) : T{0};
      for (std::int64_t p = 0; p < s.red; ++p) {
        acc += static_cast<T>(a[a_offset(form, s, i, p)]) *
               static_cast<T>(b[b_offset(form, s, p, j)]);
      }
      out = static_cast<real>(acc);
    }
  }
  return c;
}

void run_gemm_form(GemmForm form, const GemmShape& s,
                   const std::vector<real>& a, const std::vector<real>& b,
                   std::vector<real>& c, bool accumulate = false) {
  switch (form) {
    case GemmForm::kAB:
      kernels::matmul(a.data(), b.data(), c.data(), s.rows, s.red, s.cols);
      return;
    case GemmForm::kABt:
      kernels::matmul_a_bt(a.data(), b.data(), c.data(), s.rows, s.red,
                           s.cols);
      return;
    case GemmForm::kAtB:
      kernels::matmul_at_b(a.data(), b.data(), c.data(), s.red, s.rows,
                           s.cols, accumulate);
      return;
  }
}

// -- dispatch ---------------------------------------------------------------

TEST(KernelDispatch, NamesAreStable) {
  EXPECT_STREQ(kernels::backend_name(kernels::Backend::kScalar), "scalar");
  EXPECT_STREQ(kernels::backend_name(kernels::Backend::kSimd), "simd");
  EXPECT_STREQ(kernels::dtype_name(kernels::ComputeDtype::kFloat64),
               "float64");
  EXPECT_STREQ(kernels::dtype_name(kernels::ComputeDtype::kFloat32),
               "float32");
}

TEST(KernelDispatch, ScopedBackendOverridesSelection) {
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    EXPECT_EQ(kernels::active_backend(), kernels::Backend::kScalar);
    EXPECT_EQ(&kernels::active_table(), &kernels::scalar_table());
  }
  if (kernels::simd_available()) {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    EXPECT_EQ(kernels::active_backend(), kernels::Backend::kSimd);
    EXPECT_EQ(&kernels::active_table(), &kernels::simd_table());
  }
}

TEST(KernelDispatch, ScopedComputeDtypeControlsElementSize) {
  // Pin the ambient dtype: the CI fp32-smoke leg runs this binary with
  // SGNN_COMPUTE_DTYPE=float32 exported.
  kernels::ScopedComputeDtype ambient(kernels::ComputeDtype::kFloat64);
  EXPECT_EQ(kernels::compute_element_size(), 8);
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    EXPECT_EQ(kernels::active_compute_dtype(),
              kernels::ComputeDtype::kFloat32);
    EXPECT_EQ(kernels::compute_element_size(), 4);
  }
  EXPECT_EQ(kernels::compute_element_size(), 8);
}

TEST(KernelDispatch, TablesAreFullyPopulated) {
  for (const auto* table : {&kernels::scalar_table(),
                            &kernels::simd_table()}) {
    EXPECT_NE(table->gemm_rows_f64, nullptr);
    EXPECT_NE(table->gemm_rows_f32, nullptr);
    EXPECT_NE(table->mul_add_probe, nullptr);
    for (const auto& set : table->elementwise) {
      EXPECT_NE(set.binary, nullptr);
      EXPECT_NE(set.binary_bwd, nullptr);
      EXPECT_NE(set.unary, nullptr);
      EXPECT_NE(set.unary_bwd, nullptr);
      EXPECT_NE(set.silu_bwd_saved, nullptr);
      EXPECT_NE(set.sum_chunk, nullptr);
      EXPECT_NE(set.accumulate, nullptr);
    }
  }
}

// -- IEEE-754 regression: matmul must not skip zero operands ----------------
//
// The old inner loop had `if (av == 0) continue;`, which silently turned
// 0 * Inf and 0 * NaN into 0 instead of NaN. Pin the correct semantics on
// every backend, through the autograd op and the raw drivers.

TEST(KernelIeee, MatmulPropagatesZeroTimesInfAsNan) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    // [0 1] @ [[inf] [2]]: the zero row entry meets Inf -> NaN, which must
    // not be masked by the finite 1*2 term.
    const Tensor a = Tensor::from_vector({0.0, 1.0}, Shape{1, 2});
    const Tensor b = Tensor::from_vector({kInf, 2.0}, Shape{2, 1});
    const auto c = matmul(a, b).to_vector();
    EXPECT_TRUE(std::isnan(c[0]))
        << "backend " << kernels::backend_name(backend) << " produced "
        << c[0];
  }
}

TEST(KernelIeee, MatmulPropagatesNanThroughZeroRows) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    const Tensor a = Tensor::from_vector({0.0, 0.0}, Shape{1, 2});
    const Tensor b = Tensor::from_vector({kNaN, 7.0}, Shape{2, 1});
    const auto c = matmul(a, b).to_vector();
    EXPECT_TRUE(std::isnan(c[0]))
        << "backend " << kernels::backend_name(backend) << " produced "
        << c[0];
  }
}

TEST(KernelIeee, MatmulKeepsInfinityWhenUnmasked) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    const Tensor a = Tensor::from_vector({1.0, 0.0, 3.0}, Shape{1, 3});
    const Tensor b = Tensor::from_vector({kInf, 5.0, 1.0}, Shape{3, 1});
    const auto c = matmul(a, b).to_vector();
    // 1*Inf + 0*5 + 3*1: the 0*5 term is finite, so the Inf survives.
    EXPECT_TRUE(std::isinf(c[0]) && c[0] > 0)
        << "backend " << kernels::backend_name(backend) << " produced "
        << c[0];
  }
}

TEST(KernelIeee, TransposedVariantsPropagateNonFinites) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    // a(2,1), b(2,1): a^T b = 0*Inf + 1*2 -> NaN.
    const std::vector<real> a = {0.0, 1.0};
    const std::vector<real> b = {kInf, 2.0};
    real at_b = 0;
    kernels::matmul_at_b(a.data(), b.data(), &at_b, 2, 1, 1);
    EXPECT_TRUE(std::isnan(at_b))
        << "at_b on " << kernels::backend_name(backend) << ": " << at_b;
    // a(1,2) @ b(1,2)^T: same dot product through the a_bt kernel.
    real a_bt = 0;
    kernels::matmul_a_bt(a.data(), b.data(), &a_bt, 1, 2, 1);
    EXPECT_TRUE(std::isnan(a_bt))
        << "a_bt on " << kernels::backend_name(backend) << ": " << a_bt;
  }
}

TEST(KernelIeee, NonFinitesPropagateInsideAFullRegisterTile) {
  // 8 x 16 outputs over 20 products: whole register tiles on the SIMD
  // backend, not the narrow reference path the 1x2 shapes above reach.
  const GemmShape s{8, 20, 16};
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    for (const GemmForm form : kGemmForms) {
      auto a = random_vector(s.rows * s.red, 41, 0.5, 2.0);
      auto b = random_vector(s.red * s.cols, 42);
      a[a_offset(form, s, 5, 7)] = kNaN;   // poisons all of row 5
      a[a_offset(form, s, 2, 11)] = 0.0;   // 0 x Inf at C(2, 9) ...
      b[b_offset(form, s, 11, 9)] = kInf;  // ... and +Inf elsewhere in col 9
      std::vector<real> c(static_cast<std::size_t>(s.rows * s.cols));
      run_gemm_form(form, s, a, b, c);
      const auto at = [&](std::int64_t i, std::int64_t j) {
        return c[static_cast<std::size_t>(i * s.cols + j)];
      };
      const std::string where =
          std::string(kernels::backend_name(backend)) + " " +
          gemm_form_name(form);
      for (std::int64_t j = 0; j < s.cols; ++j) {
        EXPECT_TRUE(std::isnan(at(5, j))) << where << " C(5," << j << ")";
      }
      EXPECT_TRUE(std::isnan(at(2, 9))) << where << " C(2,9)=" << at(2, 9);
      for (const std::int64_t i : {0, 1, 3, 4, 6, 7}) {
        EXPECT_TRUE(std::isinf(at(i, 9)) && at(i, 9) > 0)
            << where << " C(" << i << ",9)=" << at(i, 9);
      }
      EXPECT_TRUE(std::isfinite(at(2, 8))) << where << " C(2,8)";
    }
  }
}

TEST(KernelGemm, AccumulateContinuesTheFoldBitForBit) {
  // Aᵀ·B over 700 reduction rows in one call, and as 300 rows then the
  // remaining 400 accumulated onto the partial: the same per-element sum,
  // which is what the graph-parallel weight-gradient ring relies on.
  const std::int64_t red = 700, head = 300, rows = 21, cols = 12;
  const auto a = random_vector(red * rows, 51);
  const auto b = random_vector(red * cols, 52);
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    std::vector<real> whole(static_cast<std::size_t>(rows * cols));
    std::vector<real> folded(whole.size());
    kernels::matmul_at_b(a.data(), b.data(), whole.data(), red, rows, cols);
    kernels::matmul_at_b(a.data(), b.data(), folded.data(), head, rows, cols);
    kernels::matmul_at_b(a.data() + head * rows, b.data() + head * cols,
                         folded.data(), red - head, rows, cols,
                         /*accumulate=*/true);
    EXPECT_EQ(bit_patterns(whole), bit_patterns(folded))
        << kernels::backend_name(backend);
  }
}

// -- scalar <-> SIMD agreement ----------------------------------------------
//
// All three matmul forms, elementwise and accumulate are bit-identical
// across backends (same per-element mul+add order, FMA disabled); only the
// full sum splits across lanes and carries a 1e-12 relative tolerance (see
// docs/kernels.md).

class KernelAgreement : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::simd_available()) {
      GTEST_SKIP() << "SIMD backend not available on this machine";
    }
  }
};

TEST_F(KernelAgreement, MatmulIsBitIdentical) {
  const std::int64_t m = 17, k = 23, n = 19;  // odd: exercises vector tails
  const auto a = random_vector(m * k, 101);
  const auto b = random_vector(k * n, 202);
  std::vector<real> scalar_c(m * n), simd_c(m * n);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    kernels::matmul(a.data(), b.data(), scalar_c.data(), m, k, n);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    kernels::matmul(a.data(), b.data(), simd_c.data(), m, k, n);
  }
  for (std::size_t i = 0; i < scalar_c.size(); ++i) {
    ASSERT_EQ(scalar_c[i], simd_c[i]) << "element " << i;
  }
}

TEST_F(KernelAgreement, MatmulAtBIsBitIdentical) {
  const std::int64_t m = 23, k = 17, n = 19;
  const auto a = random_vector(m * k, 303);
  const auto b = random_vector(m * n, 404);
  std::vector<real> scalar_c(k * n), simd_c(k * n);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    kernels::matmul_at_b(a.data(), b.data(), scalar_c.data(), m, k, n);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    kernels::matmul_at_b(a.data(), b.data(), simd_c.data(), m, k, n);
  }
  for (std::size_t i = 0; i < scalar_c.size(); ++i) {
    ASSERT_EQ(scalar_c[i], simd_c[i]) << "element " << i;
  }
}

TEST_F(KernelAgreement, MatmulABtIsBitIdentical) {
  const std::int64_t m = 17, n = 23, k = 19;
  const auto a = random_vector(m * n, 505);
  const auto b = random_vector(k * n, 606);
  std::vector<real> scalar_c(m * k), simd_c(m * k);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    kernels::matmul_a_bt(a.data(), b.data(), scalar_c.data(), m, n, k);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    kernels::matmul_a_bt(a.data(), b.data(), simd_c.data(), m, n, k);
  }
  for (std::size_t i = 0; i < scalar_c.size(); ++i) {
    ASSERT_EQ(scalar_c[i], simd_c[i]) << "element " << i;
  }
}

// Both backends against the contract itself, on shapes that cross every
// edge of the SIMD kernel (kernels_internal.hpp): row bands and a partial
// 4-row strip, several panels of B, a column tail, an output narrower than
// a tile, a thin deep product; in both dtypes, at 1 and 4 lanes, and in
// the accumulate form.
TEST_F(KernelAgreement, GemmFormsAreBitIdenticalAcrossTileBoundaries) {
  const GemmShape shapes[] = {
      {53, 600, 19},  // 4 row bands, a partial strip, 3 panels, a column tail
      {37, 300, 1},   // one column: narrower than a tile
      {64, 257, 32},  // whole bands and tiles, one step past a panel
      {6, 3000, 24},  // thin and deep, like a weight gradient's Aᵀ·B
  };
  const int lanes = ThreadPool::instance().size();
  std::uint64_t seed = 2000;
  for (const GemmForm form : kGemmForms) {
    for (const GemmShape& s : shapes) {
      const auto a = random_vector(s.rows * s.red, ++seed);
      const auto b = random_vector(s.red * s.cols, ++seed);
      const auto c0 = random_vector(s.rows * s.cols, ++seed);
      for (const auto dtype : {kernels::ComputeDtype::kFloat64,
                               kernels::ComputeDtype::kFloat32}) {
        kernels::ScopedComputeDtype dtype_scope(dtype);
        for (const int pool : {1, 4}) {
          ThreadPool::instance().resize(pool);
          for (const bool accumulate : {false, true}) {
            if (accumulate && form != GemmForm::kAtB) continue;
            const auto expected =
                dtype == kernels::ComputeDtype::kFloat64
                    ? reference_gemm<double>(form, s, a, b, c0, accumulate)
                    : reference_gemm<float>(form, s, a, b, c0, accumulate);
            std::vector<real> scalar_c = c0;
            std::vector<real> simd_c = c0;
            {
              kernels::ScopedBackend scope(kernels::Backend::kScalar);
              run_gemm_form(form, s, a, b, scalar_c, accumulate);
            }
            {
              kernels::ScopedBackend scope(kernels::Backend::kSimd);
              run_gemm_form(form, s, a, b, simd_c, accumulate);
            }
            const std::string where =
                std::string(gemm_form_name(form)) + " " +
                std::to_string(s.rows) + "x" + std::to_string(s.red) + "x" +
                std::to_string(s.cols) + " " + kernels::dtype_name(dtype) +
                " lanes=" + std::to_string(pool) +
                " accumulate=" + std::to_string(accumulate);
            ASSERT_EQ(bit_patterns(scalar_c), bit_patterns(expected)) << where;
            ASSERT_EQ(bit_patterns(simd_c), bit_patterns(expected)) << where;
          }
        }
      }
    }
  }
  ThreadPool::instance().resize(lanes);
}

/// The three operand forms of a binary kernel: both operands streamed, or
/// one of them a single element read for every i.
constexpr kernels::Broadcast kOperandForms[] = {
    kernels::Broadcast::kNone, kernels::Broadcast::kA, kernels::Broadcast::kB};

void run_binary(kernels::BinaryOp op, kernels::Broadcast form,
                const std::vector<real>& a, const std::vector<real>& b,
                std::vector<real>& out) {
  kernels::binary(op, a.data(), b.data(), out.data(),
                  static_cast<std::int64_t>(out.size()), form);
}

/// (C)x ∘ (C)y widened back: the per-element operation every binary
/// kernel of compute type C must perform.
template <typename C>
real reference_binary(kernels::BinaryOp op, real x, real y) {
  const C cx = static_cast<C>(x);
  const C cy = static_cast<C>(y);
  switch (op) {
    case kernels::BinaryOp::kAdd: return static_cast<real>(cx + cy);
    case kernels::BinaryOp::kSub: return static_cast<real>(cx - cy);
    case kernels::BinaryOp::kMul: return static_cast<real>(cx * cy);
    case kernels::BinaryOp::kDiv: return static_cast<real>(cx / cy);
  }
  return 0;
}

constexpr kernels::ComputeDtype kDtypes[] = {kernels::ComputeDtype::kFloat64,
                                             kernels::ComputeDtype::kFloat32};

// Every elementwise kernel in both compute dtypes; binary ops in all three
// operand forms, each against the per-element reference, and a scalar
// operand bit-identical to the same-shape op over that element repeated.
TEST_F(KernelAgreement, ElementwiseForwardAndBackwardAreBitIdentical) {
  const std::int64_t n = 10007;  // prime: never a multiple of the lane width
  const auto a = random_vector(n, 707, 0.5, 2.0);
  const auto b = random_vector(n, 808, 0.5, 2.0);
  const auto g = random_vector(n, 909);
  const std::vector<real> a_rep(static_cast<std::size_t>(n), a[0]);
  const std::vector<real> b_rep(static_cast<std::size_t>(n), b[0]);

  using kernels::BinaryOp;
  using kernels::UnaryOp;
  for (const auto dtype : kDtypes) {
    kernels::ScopedComputeDtype dtype_scope(dtype);
    const std::string dt = kernels::dtype_name(dtype);
    for (const auto op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                          BinaryOp::kDiv}) {
      for (const kernels::Broadcast form : kOperandForms) {
        const std::string where = dt + " binary op " +
                                  std::to_string(static_cast<int>(op)) +
                                  " form " +
                                  std::to_string(static_cast<int>(form));
        std::vector<real> scalar_out(n), simd_out(n), expected(n);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const real x = form == kernels::Broadcast::kA ? a[0] : a[i];
          const real y = form == kernels::Broadcast::kB ? b[0] : b[i];
          expected[i] = dtype == kernels::ComputeDtype::kFloat64
                            ? reference_binary<double>(op, x, y)
                            : reference_binary<float>(op, x, y);
        }
        {
          kernels::ScopedBackend scope(kernels::Backend::kScalar);
          run_binary(op, form, a, b, scalar_out);
        }
        {
          kernels::ScopedBackend scope(kernels::Backend::kSimd);
          run_binary(op, form, a, b, simd_out);
        }
        ASSERT_EQ(bit_patterns(scalar_out), bit_patterns(expected)) << where;
        ASSERT_EQ(bit_patterns(simd_out), bit_patterns(expected)) << where;
        if (form == kernels::Broadcast::kNone) continue;
        for (const auto backend : available_backends()) {
          kernels::ScopedBackend scope(backend);
          std::vector<real> repeated(n);
          run_binary(op, kernels::Broadcast::kNone,
                     form == kernels::Broadcast::kA ? a_rep : a,
                     form == kernels::Broadcast::kB ? b_rep : b, repeated);
          ASSERT_EQ(bit_patterns(simd_out), bit_patterns(repeated))
              << where << " vs repeated, " << kernels::backend_name(backend);
        }
      }
      std::vector<real> scalar_ga(n), scalar_gb(n), simd_ga(n), simd_gb(n);
      {
        kernels::ScopedBackend scope(kernels::Backend::kScalar);
        kernels::binary_backward(op, a.data(), b.data(), g.data(),
                                 scalar_ga.data(), scalar_gb.data(), n);
      }
      {
        kernels::ScopedBackend scope(kernels::Backend::kSimd);
        kernels::binary_backward(op, a.data(), b.data(), g.data(),
                                 simd_ga.data(), simd_gb.data(), n);
      }
      const std::string where =
          dt + " binary bwd " + std::to_string(static_cast<int>(op));
      ASSERT_EQ(bit_patterns(scalar_ga), bit_patterns(simd_ga)) << where;
      ASSERT_EQ(bit_patterns(scalar_gb), bit_patterns(simd_gb)) << where;
    }

    const struct {
      UnaryOp op;
      real c;
    } unary_cases[] = {
        {UnaryOp::kNeg, 0},        {UnaryOp::kScale, 1.7},
        {UnaryOp::kAddScalar, .5}, {UnaryOp::kPow, 3.0},
        {UnaryOp::kSquare, 0},     {UnaryOp::kSqrt, 0},
        {UnaryOp::kExp, 0},        {UnaryOp::kLog, 0},
        {UnaryOp::kAbs, 0},        {UnaryOp::kClampMin, 1.0},
        {UnaryOp::kRelu, 0},       {UnaryOp::kSigmoid, 0},
        {UnaryOp::kTanh, 0},       {UnaryOp::kSilu, 0},
        {UnaryOp::kSoftplus, 0},
    };
    for (const auto& c : unary_cases) {
      std::vector<real> scalar_out(n), simd_out(n), scalar_gx(n), simd_gx(n);
      {
        kernels::ScopedBackend scope(kernels::Backend::kScalar);
        kernels::unary(c.op, a.data(), scalar_out.data(), c.c, n);
        kernels::unary_backward(c.op, a.data(), g.data(), scalar_gx.data(),
                                c.c, n);
      }
      {
        kernels::ScopedBackend scope(kernels::Backend::kSimd);
        kernels::unary(c.op, a.data(), simd_out.data(), c.c, n);
        kernels::unary_backward(c.op, a.data(), g.data(), simd_gx.data(),
                                c.c, n);
      }
      const std::string where =
          dt + " unary op " + std::to_string(static_cast<int>(c.op));
      ASSERT_EQ(bit_patterns(scalar_out), bit_patterns(simd_out)) << where;
      ASSERT_EQ(bit_patterns(scalar_gx), bit_patterns(simd_gx)) << where;
    }
  }
}

TEST_F(KernelAgreement, ReductionsAgree) {
  const std::int64_t n = 4099;
  const auto x = random_vector(n, 1111);
  for (const auto dtype : kDtypes) {
    kernels::ScopedComputeDtype dtype_scope(dtype);
    double scalar_sum = 0, simd_sum = 0;
    std::vector<real> scalar_acc(257, 0.25), simd_acc(257, 0.25);
    {
      kernels::ScopedBackend scope(kernels::Backend::kScalar);
      scalar_sum = kernels::reduce_sum(x.data(), n);
      kernels::accumulate(x.data(), scalar_acc.data(), 257);
    }
    {
      kernels::ScopedBackend scope(kernels::Backend::kSimd);
      simd_sum = kernels::reduce_sum(x.data(), n);
      kernels::accumulate(x.data(), simd_acc.data(), 257);
    }
    // Full sum splits across lanes: documented 1e-12 relative tolerance.
    EXPECT_LE(std::abs(scalar_sum - simd_sum) /
                  std::max(std::abs(scalar_sum), 1.0),
              1e-12)
        << kernels::dtype_name(dtype);
    // accumulate is a pure elementwise add: bit-identical.
    ASSERT_EQ(bit_patterns(scalar_acc), bit_patterns(simd_acc))
        << kernels::dtype_name(dtype);
  }
}

// -- fp32 compute flavour ---------------------------------------------------

TEST(KernelFp32, MatmulMatchesFp64WithinRoundingTolerance) {
  const std::int64_t m = 13, k = 29, n = 11;
  const auto a = random_vector(m * k, 1212);
  const auto b = random_vector(k * n, 1313);
  std::vector<real> c64(m * n), c32(m * n);
  kernels::matmul(a.data(), b.data(), c64.data(), m, k, n);
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    kernels::matmul(a.data(), b.data(), c32.data(), m, k, n);
  }
  for (std::size_t i = 0; i < c64.size(); ++i) {
    const double denom = std::max(std::abs(c64[i]), 1.0);
    // float has a 2^-24 epsilon; a k=29 dot product stays well under 1e-4.
    ASSERT_LE(std::abs(c64[i] - c32[i]) / denom, 1e-4)
        << "element " << i << ": " << c64[i] << " vs " << c32[i];
    // And the rounding must actually happen: the result is representable
    // arithmetic over floats, not the fp64 result relabeled.
    ASSERT_EQ(c32[i], c32[i]);  // no NaNs from the scratch plumbing
  }
}

TEST(KernelFp32, ElementwiseRoundsOperandsThroughFloat) {
  // 1 + 2^-40 is invisible in float: the fp32 flavour must return exactly
  // 1 + 2 = 3 with the tiny addend rounded away, fp64 must keep it.
  const real tiny = 1.0 + std::pow(2.0, -40);
  const std::vector<real> a = {tiny};
  const std::vector<real> b = {2.0};
  real out64 = 0, out32 = 0;
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat64);
    kernels::binary(kernels::BinaryOp::kAdd, a.data(), b.data(), &out64, 1,
                    kernels::Broadcast::kNone);
  }
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    kernels::binary(kernels::BinaryOp::kAdd, a.data(), b.data(), &out32, 1,
                    kernels::Broadcast::kNone);
  }
  EXPECT_GT(out64, 3.0);
  EXPECT_EQ(out32, 3.0);
}

// -- saturating KernelScope cost arithmetic ---------------------------------

TEST(SatArith, ProductsClampAtInt64Max) {
  using obs::prof::sat_add;
  using obs::prof::sat_mul;
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();

  // Exact below the boundary.
  EXPECT_EQ(sat_mul(std::int64_t{1} << 31, std::int64_t{1} << 31),
            std::int64_t{1} << 62);
  EXPECT_EQ(sat_mul(3, 5, 7), 105);
  EXPECT_EQ(sat_mul(2, 3, 5, 7), 210);
  EXPECT_EQ(sat_add(max - 1, 1), max);

  // Clamped at and past it. 3037000500^2 is the first square past 2^63.
  EXPECT_EQ(sat_mul(3037000500LL, 3037000500LL), max);
  EXPECT_EQ(sat_mul(max, 2), max);
  EXPECT_EQ(sat_add(max, 1), max);
  EXPECT_EQ(sat_add(max, max, max), max);
  // A clamped partial product stays clamped through further factors.
  EXPECT_EQ(sat_mul(max, 2, 3), max);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 40, std::int64_t{1} << 40, 2), max);
}

TEST(SatArith, MatmulCostsSurviveHugeShapes) {
  // The expressions ops_linalg.cpp feeds KernelScope: 2*m*k*n FLOPs for a
  // shape whose product overflows int64 must clamp, not wrap negative.
  using obs::prof::sat_mul;
  const std::int64_t huge = std::int64_t{1} << 31;
  EXPECT_EQ(sat_mul(2, huge, huge, huge),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(sat_mul(2, huge, huge, huge), 0);
}

}  // namespace
}  // namespace sgnn
