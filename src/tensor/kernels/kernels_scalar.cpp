// The scalar reference backend: straight instantiations of the shared
// reference kernels. This TU is compiled with the project's baseline flags
// (no -m<isa> options), so the scalar table runs on any target CPU.

#include "kernels_impl.hpp"
#include "sgnn/tensor/kernels.hpp"

namespace sgnn::kernels {

const KernelTable& scalar_table() {
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

}  // namespace sgnn::kernels
