#pragma once

// sgnn::kernels — runtime-dispatched CPU kernel backends for the tensor ops.
//
// The op layer (src/tensor/ops_*.cpp) owns shapes, autograd, KernelScope
// accounting and thread-pool sharding; the inner loops live here behind a
// table of function pointers so the same op code runs against either
//
//   * the scalar reference backend (portable, always available), or
//   * the SIMD backend (AVX2+FMA on x86-64, NEON on AArch64), selected at
//     runtime from CPUID with an `SGNN_BACKEND=scalar|simd` env override.
//
// Every kernel comes in a float64 and a float32-compute flavour. Storage is
// always `real` (double); the fp32 flavour rounds operands through float and
// is enabled process-wide with `SGNN_COMPUTE_DTYPE=float32` (master weights,
// optimizer state and gradient accumulation stay fp64 — see docs/kernels.md
// for the exact rounding semantics and cross-backend tolerances).
//
// Determinism contract: within one backend, every kernel is bit-identical
// across thread counts (band decomposition is done by the caller with the
// deterministic parallel_for chunking, and each band accumulates in a fixed
// order). Across backends, all three matmul forms, elementwise and axis-sums
// are bit-identical by construction: each matmul output element adds its
// products in ascending order with separate mul and add (never FMA), and
// the SIMD code performs the same per-element operations. Only the full
// sum changes reduction order and carries a documented tolerance.

#include <cstdint>
#include <functional>

namespace sgnn {
// Storage scalar, re-declared here (identically to tensor.hpp) so the SIMD
// backend TU — compiled with stricter ISA flags — never includes the
// inline-heavy tensor headers and can't leak AVX2 code into shared inline
// functions through the static archive.
using real = double;
}  // namespace sgnn

namespace sgnn::kernels {

enum class Backend { kScalar = 0, kSimd = 1 };
enum class ComputeDtype { kFloat64 = 0, kFloat32 = 1 };

/// Elementwise binary kernels.
enum class BinaryOp { kAdd, kSub, kMul, kDiv };

/// Which operand of a binary kernel, if either, holds one element that is
/// read for every i (a scalar operand is a broadcast, not another kernel).
enum class Broadcast { kNone, kA, kB };

/// Elementwise unary kernels. `c` is the op parameter where one exists
/// (kScale: factor, kAddScalar: addend, kPow: exponent, kClampMin: bound).
enum class UnaryOp {
  kNeg,
  kScale,
  kAddScalar,
  kPow,
  kSquare,
  kSqrt,
  kExp,
  kLog,
  kAbs,
  kClampMin,
  kRelu,
  kSigmoid,
  kTanh,
  kSilu,
  kSoftplus,
};

/// One GEMM as the backends see it: C(m,n) = A(m,k)·B(k,n) with A and B
/// read through element strides, A(i,p) = a[i·a_rs + p·a_cs] and
/// B(p,j) = b[p·b_rs + j·b_cs], so A·B, Aᵀ·B and A·Bᵀ are one call. C is
/// dense row-major. Each C element starts from zero (from C itself when
/// `accumulate` is set) and adds its k products in ascending p, one
/// separately rounded mul and add each.
template <typename T>
struct Gemm {
  const T* a;
  std::int64_t a_rs, a_cs;
  const T* b;
  std::int64_t b_rs, b_cs;
  T* c;
  std::int64_t m, k, n;
  bool accumulate;
};

/// One compute dtype's elementwise and reduction kernels. They take
/// pre-offset pointers and a count, read and write `real` storage, and in
/// the fp32 set round every operand through float (docs/kernels.md).
struct ElementwiseKernels {
  // out[i] = a[i] ∘ b[i]; a broadcast operand is read at element 0.
  void (*binary)(BinaryOp op, const real* a, const real* b, real* out,
                 std::int64_t n, Broadcast scalar);
  // ga[i] = d(out)/da * g[i], gb[i] = d(out)/db * g[i] (same-shape inputs).
  void (*binary_bwd)(BinaryOp op, const real* a, const real* b,
                     const real* g, real* ga, real* gb, std::int64_t n);
  void (*unary)(UnaryOp op, const real* x, real* out, real c,
                std::int64_t n);
  void (*unary_bwd)(UnaryOp op, const real* x, const real* g, real* gx,
                    real c, std::int64_t n);
  // gx[i] = s·(1 + v·(1 − s))·g[i] with s = sigmoid(v) saved by the forward:
  // the kSilu unary_bwd expression without recomputing the exp.
  void (*silu_bwd_saved)(const real* v, const real* s, const real* g,
                         real* gx, std::int64_t n);
  // Chunk sum with a fp64 accumulator (the fp32 set rounds each input).
  double (*sum_chunk)(const real* x, std::int64_t n);
  // dst[i] += src[i]; the ordered inner step of axis reductions.
  void (*accumulate)(const real* src, real* dst, std::int64_t n);
};

/// One backend's kernel entry points. Band kernels take element pointers to
/// whole operands plus a [row_begin, row_end) band so the caller can shard
/// with parallel_for while the table owns the inner loops. The `_f32` GEMM
/// runs on float scratch buffers prepared by the drivers below.
struct KernelTable {
  // Rows [row_begin, row_end) of g.c. `packed_b` is g's B, one panel of
  // at most 256 reduction steps, packed by the driver into gemm_nr-wide
  // tiles (layout in kernels_internal.hpp) and shared read-only by every
  // band; a backend with gemm_nr == 0 reads B in place and gets null.
  void (*gemm_rows_f64)(const Gemm<real>& g, const real* packed_b,
                        std::int64_t row_begin, std::int64_t row_end);
  void (*gemm_rows_f32)(const Gemm<float>& g, const float* packed_b,
                        std::int64_t row_begin, std::int64_t row_end);
  std::int64_t gemm_nr_f64;
  std::int64_t gemm_nr_f32;

  // Indexed by ComputeDtype: the same kernels instantiated per dtype.
  ElementwiseKernels elementwise[2];

  // Compute-ceiling probe: `reps` rounds of independent mul+add chains on
  // this backend's widest lanes, never leaving registers. Returns the flops
  // done (a mul and an add count one each per lane).
  double (*mul_add_probe)(std::int64_t reps);
};

/// The scalar reference table (always available).
const KernelTable& scalar_table();

/// The vectorized table. On targets compiled without AVX2/NEON support it
/// is the scalar reference table.
const KernelTable& simd_table();

/// True when the SIMD table is actually vectorized AND the running CPU
/// supports the required ISA extensions (AVX2+FMA on x86-64).
bool simd_available();

/// The backend in effect for the next kernel launch: a ScopedBackend
/// override if active, else the process-wide selection (SGNN_BACKEND env
/// override, else SIMD when simd_available()). Resolved lazily once per
/// process; an unknown SGNN_BACKEND value throws, and SGNN_BACKEND=simd on
/// hardware without SIMD support logs a warning and falls back to scalar.
Backend active_backend();

/// The compute dtype in effect: a ScopedComputeDtype override if active,
/// else SGNN_COMPUTE_DTYPE (float32|float64, default float64). Unknown
/// values throw.
ComputeDtype active_compute_dtype();

const KernelTable& active_table();

/// The active backend's elementwise set for `dtype`, by default the active
/// compute dtype: the one place a kernel call picks its dtype.
const ElementwiseKernels& elementwise(
    ComputeDtype dtype = active_compute_dtype());

const char* backend_name(Backend backend);
const char* dtype_name(ComputeDtype dtype);

/// Element width (bytes) of the active compute dtype, for KernelScope byte
/// accounting: 8 under fp64, 4 under fp32 compute.
std::int64_t compute_element_size();

/// Test/bench hook forcing the backend process-wide for the current scope.
/// Not thread-safe against concurrently launching kernels from other
/// threads; intended for single-threaded test setup.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  int previous_;
};

/// Test/bench hook forcing the compute dtype, same caveats as ScopedBackend.
class ScopedComputeDtype {
 public:
  explicit ScopedComputeDtype(ComputeDtype dtype);
  ~ScopedComputeDtype();
  ScopedComputeDtype(const ScopedComputeDtype&) = delete;
  ScopedComputeDtype& operator=(const ScopedComputeDtype&) = delete;

 private:
  int previous_;
};

// ---------------------------------------------------------------------------
// Threaded drivers. These resolve the active table/dtype, shard the work
// across the process thread pool with the deterministic chunking, and (for
// fp32 matmul) manage the float scratch buffers. The op layer calls these
// inside its KernelScope.

/// Runs on each finished row band [row_begin, row_end) of a matmul result,
/// on the thread that computed it, while the band is still in cache.
using RowBandEpilogue =
    std::function<void(std::int64_t row_begin, std::int64_t row_end)>;

/// c(m,n) = a(m,k) @ b(k,n), then `epilogue` (if set) on each row band.
void matmul(const real* a, const real* b, real* c, std::int64_t m,
            std::int64_t k, std::int64_t n,
            const RowBandEpilogue& epilogue = {});

/// c(k,n) = aᵀ @ b with a given as (m,k), b as (m,n). With `accumulate`
/// the sum continues from c's values instead of zero, in the same order.
void matmul_at_b(const real* a, const real* b, real* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate = false);

/// c(m,k) = a(m,n) @ bᵀ with b given as (k,n).
void matmul_a_bt(const real* a, const real* b, real* c, std::int64_t m,
                 std::int64_t n, std::int64_t k);

/// out[i] = a[i] ∘ b[i] over n elements, with a[0] (Broadcast::kA) or
/// b[0] (Broadcast::kB) standing for every element of a scalar operand.
void binary(BinaryOp op, const real* a, const real* b, real* out,
            std::int64_t n, Broadcast scalar);
void binary_backward(BinaryOp op, const real* a, const real* b, const real* g,
                     real* ga, real* gb, std::int64_t n);

void unary(UnaryOp op, const real* x, real* out, real c, std::int64_t n);
void unary_backward(UnaryOp op, const real* x, const real* g, real* gx,
                    real c, std::int64_t n);

/// Chunk-ordered full sum (deterministic across pool sizes).
double reduce_sum(const real* x, std::int64_t n);

/// dst[i] += src[i] over a caller-owned band (axis-reduction inner step).
void accumulate(const real* src, real* dst, std::int64_t n);

/// The mul_add_probe of the widest backend this CPU runs (SIMD when
/// simd_available(), whatever backend is active): the compute roof the
/// profiler calibrates against. Safe to call from several threads at once.
double mul_add_probe(std::int64_t reps);

}  // namespace sgnn::kernels
