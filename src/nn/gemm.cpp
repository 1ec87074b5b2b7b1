#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/threadpool.hpp"

namespace sn::nn {

namespace {

// Fast path: no transposes, the layout im2col convolution and FC forward use.
// i-k-j ordering with a K-block keeps b rows hot in L1/L2.
void gemm_nn(int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
             float beta, float* c, int ldc, int row_begin, int row_end) {
  constexpr int kBlock = 256;
  for (int i = row_begin; i < row_end; ++i) {
    float* crow = c + static_cast<long>(i) * ldc;
    if (beta == 0.0f) {
      std::memset(crow, 0, sizeof(float) * static_cast<size_t>(n));
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
    for (int k0 = 0; k0 < k; k0 += kBlock) {
      int k1 = std::min(k, k0 + kBlock);
      for (int kk = k0; kk < k1; ++kk) {
        float av = alpha * a[static_cast<long>(i) * lda + kk];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<long>(kk) * ldb;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// General path: index through op(A)/op(B) explicitly.
void gemm_general(bool trans_a, bool trans_b, int n, int k, float alpha, const float* a,
                  int lda, const float* b, int ldb, float beta, float* c, int ldc, int row_begin,
                  int row_end) {
  for (int i = row_begin; i < row_end; ++i) {
    float* crow = c + static_cast<long>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        float av = trans_a ? a[static_cast<long>(kk) * lda + i] : a[static_cast<long>(i) * lda + kk];
        float bv = trans_b ? b[static_cast<long>(j) * ldb + kk] : b[static_cast<long>(kk) * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      crow[j] = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  // Split rows of C across the lanes; each range is written by exactly one lane.
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(m), [&](size_t lo, size_t hi) {
    if (!trans_a && !trans_b) {
      gemm_nn(n, k, alpha, a, lda, b, ldb, beta, c, ldc, static_cast<int>(lo),
              static_cast<int>(hi));
    } else {
      gemm_general(trans_a, trans_b, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                   static_cast<int>(lo), static_cast<int>(hi));
    }
  });
}

}  // namespace sn::nn
