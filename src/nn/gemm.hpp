// Single-precision GEMM for the kernel library.
//
// Row-major: C (MxN) = alpha * op(A) * op(B) + beta * C.
// Blocked over K with the inner loops arranged i-k-j so the innermost loop
// streams both B and C rows; the rows of C are split into one contiguous
// range per lane of the global kernel pool. Not a BLAS replacement — it exists so that convolution
// and FC layers have real, recomputable numerics with plausible cache
// behaviour.
#pragma once

namespace sn::nn {

void sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc);

}  // namespace sn::nn
