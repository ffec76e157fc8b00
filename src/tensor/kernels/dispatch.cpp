// Backend/dtype selection and the threaded kernel drivers. This TU is
// compiled with the project's baseline flags; the only ISA-specific code it
// touches is behind the function pointers in the backend tables.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
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

const ElementwiseKernels& elementwise(ComputeDtype dtype) {
  return active_table().elementwise[static_cast<int>(dtype)];
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

namespace {

/// Rows per GEMM chunk: parallel_grain() rounded up to a multiple of 16.
/// 1-row chunks would defeat the register tile, and a multiple of kGemmMr
/// leaves a partial strip only at the end of the last band. Chunking stays
/// a pure function of the shape, and every C row is computed independently,
/// so the rounding cannot change results.
constexpr std::int64_t kMatmulRowGrain = 16;
static_assert(kMatmulRowGrain % kGemmMr == 0);

std::int64_t matmul_grain(std::int64_t work_per_row) {
  const std::int64_t grain = parallel_grain(work_per_row);
  return (grain + kMatmulRowGrain - 1) / kMatmulRowGrain * kMatmulRowGrain;
}

/// Reduction steps per panel: k split evenly into the fewest panels of at
/// most kGemmKc, so no panel is a short leftover.
std::int64_t gemm_panel_depth(std::int64_t k) {
  const std::int64_t panels = (k + kGemmKc - 1) / kGemmKc;
  return panels == 0 ? 0 : (k + panels - 1) / panels;
}

/// Packs B's rows [p0, p0 + pc) into `out` as one panel of the
/// kernels_internal.hpp layout for nr-wide tiles, one tile per chunk.
template <typename T>
void pack_gemm_panel(const Gemm<T>& g, std::int64_t nr, std::int64_t p0,
                     std::int64_t pc, T* out) {
  const std::int64_t tiles = (g.n - g.n % nr) / nr;
  parallel_for(0, tiles, parallel_grain(pc * nr),
               [&g, nr, p0, pc, out](std::int64_t first, std::int64_t last) {
                 for (std::int64_t t = first; t < last; ++t) {
                   T* dst = out + t * nr * pc;
                   for (std::int64_t p = p0; p < p0 + pc; ++p) {
                     const T* src = g.b + p * g.b_rs + t * nr * g.b_cs;
                     for (std::int64_t l = 0; l < nr; ++l) {
                       *dst++ = src[l * g.b_cs];
                     }
                   }
                 }
               });
}

/// Runs g on one table's band kernel over panels of at most kGemmKc
/// reduction steps that split k evenly, B packed for the backend's
/// nr-wide tiles when it tiles (nr > 0). Every panel after the first
/// continues the sums the previous one stored in C, so each element still
/// adds its products in ascending p. `band_done` runs on each finished band.
/// Packed B is transient scratch, all of B when k <= m and one panel
/// otherwise, and is written in full before it is read.
template <typename T>
void run_gemm(void (*rows)(const Gemm<T>&, const T*, std::int64_t,
                           std::int64_t),
              std::int64_t nr, const Gemm<T>& g,
              const RowBandEpilogue& band_done) {
  const std::int64_t n_full = nr > 0 ? g.n - g.n % nr : 0;
  const std::int64_t grain = matmul_grain(g.k * g.n);
  const std::int64_t depth = gemm_panel_depth(g.k);
  const auto run_panel = [&](const T* packed, std::int64_t p0,
                             std::int64_t row_begin, std::int64_t row_end) {
    Gemm<T> panel = g;
    panel.a += p0 * g.a_cs;
    panel.b += p0 * g.b_rs;
    panel.k = std::min(depth, g.k - p0);
    panel.accumulate = g.accumulate || p0 > 0;
    rows(panel, packed, row_begin, row_end);
  };
  if (g.k <= g.m) {
    // C is the larger operand: B is packed whole, once, and each band
    // sweeps every panel while cached.
    std::unique_ptr<T[]> packed;
    if (n_full > 0) {
      packed = std::make_unique_for_overwrite<T[]>(
          static_cast<std::size_t>(g.k * n_full));
      for (std::int64_t p0 = 0; p0 < g.k; p0 += depth) {
        pack_gemm_panel(g, nr, p0, std::min(depth, g.k - p0),
                        packed.get() + p0 * n_full);
      }
    }
    parallel_for(0, g.m, grain,
                 [&](std::int64_t row_begin, std::int64_t row_end) {
                   std::int64_t p0 = 0;
                   do {
                     run_panel(packed.get() + p0 * n_full, p0, row_begin,
                               row_end);
                     p0 += depth;
                   } while (p0 < g.k);
                   if (band_done) band_done(row_begin, row_end);
                 });
    return;
  }
  // Deep and thin (weight gradients): B is as tall as the activations, so
  // one panel at a time is packed into one panel-sized buffer, and stays
  // cached while one pass runs every band over it.
  std::unique_ptr<T[]> panel;
  if (n_full > 0) {
    panel = std::make_unique_for_overwrite<T[]>(
        static_cast<std::size_t>(depth * n_full));
  }
  for (std::int64_t p0 = 0; p0 < g.k; p0 += depth) {
    if (n_full > 0) {
      pack_gemm_panel(g, nr, p0, std::min(depth, g.k - p0), panel.get());
    }
    const bool last = p0 + depth >= g.k;
    parallel_for(0, g.m, grain,
                 [&, p0, last](std::int64_t row_begin, std::int64_t row_end) {
                   run_panel(panel.get(), p0, row_begin, row_end);
                   if (last && band_done) band_done(row_begin, row_end);
                 });
  }
}

/// Runs g in the active compute dtype. fp32 compute: one-time casts
/// (O(mk + kn + mn)) bound the conversion cost; the O(mkn) inner product
/// runs on float buffers with float accumulation, and each band is widened
/// into g.c before `band_done`. Scratch is untracked transient memory.
void gemm(const Gemm<real>& g, const RowBandEpilogue& band_done = {}) {
  const KernelTable& t = active_table();
  if (active_compute_dtype() == ComputeDtype::kFloat64) {
    run_gemm(t.gemm_rows_f64, t.gemm_nr_f64, g, band_done);
    return;
  }
  std::vector<float> fa(static_cast<std::size_t>(g.m * g.k));
  std::vector<float> fb(static_cast<std::size_t>(g.k * g.n));
  std::vector<float> fc(static_cast<std::size_t>(g.m * g.n));
  cast_to_float(g.a, fa.data(), g.m * g.k);
  cast_to_float(g.b, fb.data(), g.k * g.n);
  if (g.accumulate) cast_to_float(g.c, fc.data(), g.m * g.n);
  const Gemm<float> fg{fa.data(), g.a_rs, g.a_cs, fb.data(), g.b_rs, g.b_cs,
                       fc.data(), g.m,    g.k,    g.n,       g.accumulate};
  run_gemm(t.gemm_rows_f32, t.gemm_nr_f32, fg,
           [&](std::int64_t row_begin, std::int64_t row_end) {
             for (std::int64_t i = row_begin * g.n; i < row_end * g.n; ++i) {
               g.c[i] = static_cast<real>(fc[static_cast<std::size_t>(i)]);
             }
             if (band_done) band_done(row_begin, row_end);
           });
}

}  // namespace

// sgnn-lint: allow(kernel-prof): backend-dispatch alias of the public op;
// the ops-layer matmul (ops_linalg.cpp) owns the KernelScope, and opening a
// second one here would double-book every matmul in the roofline report.
void matmul(const real* a, const real* b, real* c, std::int64_t m,
            std::int64_t k, std::int64_t n, const RowBandEpilogue& epilogue) {
  SGNN_CHECK(m >= 0 && k >= 0 && n >= 0,
             "kernels::matmul requires non-negative extents, got m=" << m
                 << " k=" << k << " n=" << n);
  gemm({a, k, 1, b, n, 1, c, m, k, n, false}, epilogue);
}

void matmul_at_b(const real* a, const real* b, real* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
  gemm({a, 1, k, b, n, 1, c, k, m, n, accumulate});
}

void matmul_a_bt(const real* a, const real* b, real* c, std::int64_t m,
                 std::int64_t n, std::int64_t k) {
  gemm({a, n, 1, b, 1, n, c, m, n, k, false});
}

double mul_add_probe(std::int64_t reps) {
  const KernelTable& t = simd_available() ? simd_table() : scalar_table();
  return t.mul_add_probe(reps);
}

void binary(BinaryOp op, const real* a, const real* b, real* out,
            std::int64_t n, Broadcast scalar) {
  const auto fn = elementwise().binary;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, scalar == Broadcast::kA ? a : a + begin,
       scalar == Broadcast::kB ? b : b + begin, out + begin, end - begin,
       scalar);
  });
}

void binary_backward(BinaryOp op, const real* a, const real* b, const real* g,
                     real* ga, real* gb, std::int64_t n) {
  const auto fn = elementwise().binary_bwd;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, a + begin, b + begin, g + begin, ga + begin, gb + begin,
       end - begin);
  });
}

void unary(UnaryOp op, const real* x, real* out, real c, std::int64_t n) {
  const auto fn = elementwise().unary;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, x + begin, out + begin, c, end - begin);
  });
}

void unary_backward(UnaryOp op, const real* x, const real* g, real* gx,
                    real c, std::int64_t n) {
  const auto fn = elementwise().unary_bwd;
  parallel_for(0, n, kGrain, [=](std::int64_t begin, std::int64_t end) {
    fn(op, x + begin, g + begin, gx + begin, c, end - begin);
  });
}

double reduce_sum(const real* x, std::int64_t n) {
  const auto fn = elementwise().sum_chunk;
  return parallel_reduce_sum(0, n, kGrain,
                             [=](std::int64_t begin, std::int64_t end) {
                               return fn(x + begin, end - begin);
                             });
}

void accumulate(const real* src, real* dst, std::int64_t n) {
  elementwise().accumulate(src, dst, n);
}

}  // namespace sgnn::kernels
