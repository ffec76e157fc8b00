#include "sgnn/tensor/ops.hpp"

namespace sgnn {
namespace backend {
// A backend loop that shares its name with the scoped public op below.
void shift(double* x, long n) {
  for (long i = 0; i < n; ++i) x[i] += 1.0;
}
}  // namespace backend

void shift(double* x, long n) {
  obs::prof::KernelScope prof("shift", n, 16 * n);
  backend::shift(x, n);
}

// Calls the unscoped backend loop, not the public `shift`: no delegation.
void fused_apply(double* x, long n) { backend::shift(x, n); }
}  // namespace sgnn
