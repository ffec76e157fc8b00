// Backend/dtype selection and the threaded kernel drivers. This TU is
// compiled with the project's baseline flags; the only ISA-specific code it
// touches is behind the function pointers in the backend tables.

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernels_internal.hpp"
// sgnn-lint: allow(layering): metrics is the any-layer instrumentation sink;
// dispatch only publishes the selected-backend gauge through it.
#include "sgnn/obs/metrics.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn::kernels {

namespace {

/// Grain for plain elementwise loops; matches ops_detail::kElementwiseGrain.
constexpr std::int64_t kGrain = 1 << 15;

// Scoped test overrides; -1 means "no override". Plain globals guarded by
// the single-threaded-setup contract documented on ScopedBackend.
std::atomic<int> g_backend_override{-1};
std::atomic<int> g_dtype_override{-1};

bool cpu_has_simd() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#elif defined(__aarch64__)
  return true;  // NEON is baseline on AArch64.
#else
  return false;
#endif
}

Backend detect_backend() {
  const char* env = std::getenv("SGNN_BACKEND");
  if (env != nullptr && *env != '\0') {
    const std::string value(env);
    if (value == "scalar") return Backend::kScalar;
    SGNN_CHECK(value == "simd", "unknown SGNN_BACKEND value '"
                                    << value << "' (expected scalar|simd)");
    if (!simd_available()) {
      SGNN_LOG_WARN << "SGNN_BACKEND=simd requested but this build/CPU has "
                       "no SIMD support; falling back to the scalar backend";
      return Backend::kScalar;
    }
    return Backend::kSimd;
  }
  return simd_available() ? Backend::kSimd : Backend::kScalar;
}

ComputeDtype detect_dtype() {
  const char* env = std::getenv("SGNN_COMPUTE_DTYPE");
  if (env != nullptr && *env != '\0') {
    const std::string value(env);
    if (value == "float64" || value == "fp64") return ComputeDtype::kFloat64;
    SGNN_CHECK(value == "float32" || value == "fp32",
               "unknown SGNN_COMPUTE_DTYPE value '"
                   << value << "' (expected float32|float64)");
    return ComputeDtype::kFloat32;
  }
  return ComputeDtype::kFloat64;
}

Backend process_backend() {
  static const Backend backend = [] {
    const Backend selected = detect_backend();
    obs::MetricsRegistry::instance()
        .gauge("kernels.backend_simd")
        .set(selected == Backend::kSimd ? 1.0 : 0.0);
    SGNN_LOG_DEBUG << "kernel backend: " << backend_name(selected)
                   << " (simd_available=" << (simd_available() ? 1 : 0)
                   << ")";
    return selected;
  }();
  return backend;
}

ComputeDtype process_dtype() {
  static const ComputeDtype dtype = [] {
    const ComputeDtype selected = detect_dtype();
    obs::MetricsRegistry::instance()
        .gauge("kernels.compute_fp32")
        .set(selected == ComputeDtype::kFloat32 ? 1.0 : 0.0);
    return selected;
  }();
  return dtype;
}

void cast_to_float(const real* src, float* dst, std::int64_t n) {
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      dst[i] = static_cast<float>(src[i]);
    }
  });
}

void widen_from_float(const float* src, real* dst, std::int64_t n) {
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      dst[i] = static_cast<real>(src[i]);
    }
  });
}

}  // namespace

bool simd_available() { return simd_table_vectorized() && cpu_has_simd(); }

Backend active_backend() {
  const int forced = g_backend_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Backend>(forced);
  return process_backend();
}

ComputeDtype active_compute_dtype() {
  const int forced = g_dtype_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<ComputeDtype>(forced);
  return process_dtype();
}

const KernelTable& active_table() {
  return active_backend() == Backend::kSimd ? simd_table() : scalar_table();
}

const char* backend_name(Backend backend) {
  return backend == Backend::kSimd ? "simd" : "scalar";
}

const char* dtype_name(ComputeDtype dtype) {
  return dtype == ComputeDtype::kFloat32 ? "float32" : "float64";
}

std::int64_t compute_element_size() {
  return active_compute_dtype() == ComputeDtype::kFloat32
             ? static_cast<std::int64_t>(sizeof(float))
             : static_cast<std::int64_t>(sizeof(real));
}

ScopedBackend::ScopedBackend(Backend backend) {
  SGNN_CHECK(backend != Backend::kSimd || simd_available(),
             "ScopedBackend(kSimd) on a build/CPU without SIMD support");
  previous_ = g_backend_override.exchange(static_cast<int>(backend),
                                          std::memory_order_relaxed);
}

ScopedBackend::~ScopedBackend() {
  g_backend_override.store(previous_, std::memory_order_relaxed);
}

ScopedComputeDtype::ScopedComputeDtype(ComputeDtype dtype) {
  previous_ = g_dtype_override.exchange(static_cast<int>(dtype),
                                        std::memory_order_relaxed);
}

ScopedComputeDtype::~ScopedComputeDtype() {
  g_dtype_override.store(previous_, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Drivers. Sharding uses the same deterministic parallel_for chunking as the
// historical op loops, so band boundaries — and therefore results — are
// independent of the pool size within one backend.

/// Minimum rows per matmul chunk. parallel_grain() clamps to 1 once a row
/// costs more than kParallelMinWork, but the matmul kernels block two A
/// rows per B pass (and the SIMD backend packs B panels per call) — both
/// are defeated by 1-row chunks. Chunking stays a pure function of the
/// shape, and every C row is computed independently, so the floor cannot
/// change results.
constexpr std::int64_t kMatmulRowGrain = 16;

inline std::int64_t matmul_grain(std::int64_t work_per_row) {
  const std::int64_t grain = parallel_grain(work_per_row);
  return grain < kMatmulRowGrain ? kMatmulRowGrain : grain;
}

// sgnn-lint: allow(kernel-prof): backend-dispatch alias of the public op;
// the ops-layer matmul (ops_linalg.cpp) owns the KernelScope, and opening a
// second one here would double-book every matmul in the roofline report.
void matmul(const real* a, const real* b, real* c, std::int64_t m,
            std::int64_t k, std::int64_t n, const RowBandEpilogue& epilogue) {
  SGNN_CHECK(m >= 0 && k >= 0 && n >= 0,
             "kernels::matmul requires non-negative extents, got m=" << m
                 << " k=" << k << " n=" << n);
  const KernelTable& t = active_table();
  if (active_compute_dtype() == ComputeDtype::kFloat64) {
    parallel_for(0, m, matmul_grain(k * n),
                 [=, &t, &epilogue](std::int64_t row_begin,
                                    std::int64_t row_end) {
                   t.matmul_rows_f64(a, b, c, k, n, row_begin, row_end);
                   if (epilogue) epilogue(row_begin, row_end);
                 });
    return;
  }
  // fp32 compute: one-time casts (O(mk + kn + mn)) bound the conversion
  // cost; the O(mkn) inner product runs on float panels with float
  // accumulation, and each band is widened into c before its epilogue.
  // Scratch is untracked transient memory.
  std::vector<float> fa(static_cast<std::size_t>(m * k));
  std::vector<float> fb(static_cast<std::size_t>(k * n));
  std::vector<float> fc(static_cast<std::size_t>(m * n));
  cast_to_float(a, fa.data(), m * k);
  cast_to_float(b, fb.data(), k * n);
  const float* fap = fa.data();
  const float* fbp = fb.data();
  float* fcp = fc.data();
  parallel_for(0, m, matmul_grain(k * n),
               [=, &t, &epilogue](std::int64_t row_begin,
                                  std::int64_t row_end) {
                 t.matmul_rows_f32(fap, fbp, fcp, k, n, row_begin, row_end);
                 for (std::int64_t i = row_begin * n; i < row_end * n; ++i) {
                   c[i] = static_cast<real>(fcp[i]);
                 }
                 if (epilogue) epilogue(row_begin, row_end);
               });
}

void matmul_at_b(const real* a, const real* b, real* c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  const KernelTable& t = active_table();
  if (active_compute_dtype() == ComputeDtype::kFloat64) {
    parallel_for(0, k, matmul_grain(m * n),
                 [=, &t](std::int64_t row_begin, std::int64_t row_end) {
                   t.matmul_at_b_band_f64(a, b, c, m, k, n, row_begin,
                                          row_end);
                 });
    return;
  }
  std::vector<float> fa(static_cast<std::size_t>(m * k));
  std::vector<float> fb(static_cast<std::size_t>(m * n));
  std::vector<float> fc(static_cast<std::size_t>(k * n));
  cast_to_float(a, fa.data(), m * k);
  cast_to_float(b, fb.data(), m * n);
  const float* fap = fa.data();
  const float* fbp = fb.data();
  float* fcp = fc.data();
  parallel_for(0, k, matmul_grain(m * n),
               [=, &t](std::int64_t row_begin, std::int64_t row_end) {
                 t.matmul_at_b_band_f32(fap, fbp, fcp, m, k, n, row_begin,
                                        row_end);
               });
  widen_from_float(fcp, c, k * n);
}

void matmul_a_bt(const real* a, const real* b, real* c, std::int64_t m,
                 std::int64_t n, std::int64_t k) {
  const KernelTable& t = active_table();
  if (active_compute_dtype() == ComputeDtype::kFloat64) {
    parallel_for(0, m, parallel_grain(n * k),
                 [=, &t](std::int64_t row_begin, std::int64_t row_end) {
                   t.matmul_a_bt_rows_f64(a, b, c, n, k, row_begin, row_end);
                 });
    return;
  }
  std::vector<float> fa(static_cast<std::size_t>(m * n));
  std::vector<float> fb(static_cast<std::size_t>(k * n));
  std::vector<float> fc(static_cast<std::size_t>(m * k));
  cast_to_float(a, fa.data(), m * n);
  cast_to_float(b, fb.data(), k * n);
  const float* fap = fa.data();
  const float* fbp = fb.data();
  float* fcp = fc.data();
  parallel_for(0, m, parallel_grain(n * k),
               [=, &t](std::int64_t row_begin, std::int64_t row_end) {
                 t.matmul_a_bt_rows_f32(fap, fbp, fcp, n, k, row_begin,
                                        row_end);
               });
  widen_from_float(fcp, c, m * k);
}

void binary(BinaryOp op, const real* a, const real* b, real* out,
            std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.binary_f32
                      : t.binary_f64;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, a + begin, b + begin, out + begin, end - begin);
  });
}

void binary_scalar_l(BinaryOp op, real a, const real* b, real* out,
                     std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.binary_scalar_l_f32
                      : t.binary_scalar_l_f64;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, a, b + begin, out + begin, end - begin);
  });
}

void binary_scalar_r(BinaryOp op, const real* a, real b, real* out,
                     std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.binary_scalar_r_f32
                      : t.binary_scalar_r_f64;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, a + begin, b, out + begin, end - begin);
  });
}

void binary_backward(BinaryOp op, const real* a, const real* b, const real* g,
                     real* ga, real* gb, std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.binary_bwd_f32
                      : t.binary_bwd_f64;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, a + begin, b + begin, g + begin, ga + begin, gb + begin,
       end - begin);
  });
}

void unary(UnaryOp op, const real* x, real* out, real c, std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.unary_f32
                      : t.unary_f64;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, x + begin, out + begin, c, end - begin);
  });
}

void unary_backward(UnaryOp op, const real* x, const real* g, real* gx,
                    real c, std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.unary_bwd_f32
                      : t.unary_bwd_f64;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, x + begin, g + begin, gx + begin, c, end - begin);
  });
}

double reduce_sum(const real* x, std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.sum_chunk_f32
                      : t.sum_chunk_f64;
  return parallel_reduce_sum(0, n, kGrain,
                             [=](std::int64_t begin, std::int64_t end) {
                               return fn(x + begin, end - begin);
                             });
}

void accumulate(const real* src, real* dst, std::int64_t n) {
  const KernelTable& t = active_table();
  const auto fn = active_compute_dtype() == ComputeDtype::kFloat32
                      ? t.accumulate_f32
                      : t.accumulate_f64;
  fn(src, dst, n);
}

}  // namespace sgnn::kernels
