#include "sgnn/tensor/ops.hpp"

namespace sgnn {
// The only scope prices the recorded backward closure; the forward loop
// itself runs unprofiled.
double* lambda_only_apply(double* x, long n) {
  record_backward([=] {
    obs::prof::KernelScope prof("lambda_only", n, 16 * n, ".bwd");
    for (long i = 0; i < n; ++i) x[i] *= 0.5;
  });
  for (long i = 0; i < n; ++i) x[i] *= 2.0;
  return x;
}
}  // namespace sgnn
