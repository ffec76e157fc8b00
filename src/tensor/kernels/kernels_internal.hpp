#pragma once

// Internal glue between the kernel backend TUs and the dispatcher. Not
// installed; the public surface is include/sgnn/tensor/kernels.hpp.

#include <cstdint>

namespace sgnn::kernels {

/// True when kernels_simd.cpp was compiled with an actual vector ISA
/// (AVX2+FMA or NEON); false when its table aliases the scalar reference.
bool simd_table_vectorized();

// Packed-B layout shared by the GEMM driver (which packs) and the SIMD band
// kernel (which reads). B's k rows are cut into panels of at most kGemmKc
// rows, and a panel of depth pc covers the n_full = n − n mod nr columns of
// whole nr-wide tiles: tile j0 (a multiple of nr) starts at j0·pc and holds
// its pc rows of nr consecutive B elements each. Columns past n_full stay
// unpacked. Packed whole, panel p0 starts at element p0·n_full; a deep B is
// packed one panel at a time instead. The driver hands the band kernel one
// panel at a time.
inline constexpr std::int64_t kGemmKc = 256;
/// Rows of C one register tile covers. Divides the driver's row grain, so
/// only the last band of a GEMM can end in a partial strip.
inline constexpr std::int64_t kGemmMr = 4;

}  // namespace sgnn::kernels
