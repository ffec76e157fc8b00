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
      /*elementwise=*/{reference_elementwise<double>(),
                       reference_elementwise<float>()},
      /*mul_add_probe=*/mul_add_probe_impl<TraitsScalar>,
  };
  return table;
}

}  // namespace sgnn::kernels
