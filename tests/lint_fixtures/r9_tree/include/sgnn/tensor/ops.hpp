#pragma once

namespace sgnn {
void relu_apply(double* x, long n);
void scale_apply(double* x, long n, double a);
void early_apply(double* x, long n);
void tagged_apply(double* x, long n);
double* lambda_only_apply(double* x, long n);
void fused_apply(double* x, long n);
}  // namespace sgnn
