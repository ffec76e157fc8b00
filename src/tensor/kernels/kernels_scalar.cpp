// The scalar reference backend: straight instantiations of the shared
// reference kernels. This TU is compiled with the project's baseline flags
// (no -m<isa> options), so the scalar table runs on any target CPU.

#include "kernels_impl.hpp"
#include "sgnn/tensor/kernels.hpp"

namespace sgnn::kernels {

const KernelTable& scalar_table() {
  static const KernelTable table = {
      /*gemm_rows_f64=*/gemm_ref<real>,
      /*gemm_rows_f32=*/gemm_ref<float>,
      /*gemm_nr_f64=*/0,
      /*gemm_nr_f32=*/0,
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
      /*mul_add_probe=*/mul_add_probe_impl<TraitsScalar>,
  };
  return table;
}

}  // namespace sgnn::kernels
