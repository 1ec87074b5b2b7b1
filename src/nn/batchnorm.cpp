#include "nn/batchnorm.hpp"

#include <cmath>

#include "util/threadpool.hpp"

namespace sn::nn {

void bn_forward(const BnDesc& d, const float* x, const float* gamma, const float* beta, float* y,
                float* save_mean, float* save_invstd) {
  const long spatial = static_cast<long>(d.h) * d.w;
  const long cnt = d.per_channel();
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.c), [&](size_t lo, size_t hi) {
    for (size_t ci = lo; ci < hi; ++ci) {
      int c = static_cast<int>(ci);
      double sum = 0.0, sq = 0.0;
      for (int n = 0; n < d.n; ++n) {
        const float* plane = x + (static_cast<long>(n) * d.c + c) * spatial;
        for (long s = 0; s < spatial; ++s) {
          sum += plane[s];
          sq += static_cast<double>(plane[s]) * plane[s];
        }
      }
      double mean = sum / static_cast<double>(cnt);
      double var = sq / static_cast<double>(cnt) - mean * mean;
      if (var < 0.0) var = 0.0;
      float invstd = static_cast<float>(1.0 / std::sqrt(var + d.eps));
      save_mean[c] = static_cast<float>(mean);
      save_invstd[c] = invstd;
      float g = gamma[c], b = beta[c], mu = static_cast<float>(mean);
      for (int n = 0; n < d.n; ++n) {
        const float* xp = x + (static_cast<long>(n) * d.c + c) * spatial;
        float* yp = y + (static_cast<long>(n) * d.c + c) * spatial;
        for (long s = 0; s < spatial; ++s) yp[s] = g * (xp[s] - mu) * invstd + b;
      }
    }
  });
}

void bn_backward(const BnDesc& d, const float* x, const float* gamma, const float* save_mean,
                 const float* save_invstd, const float* dy, float* dx, float* dgamma,
                 float* dbeta) {
  const long spatial = static_cast<long>(d.h) * d.w;
  const long cnt = d.per_channel();
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.c), [&](size_t lo, size_t hi) {
    for (size_t ci = lo; ci < hi; ++ci) {
      int c = static_cast<int>(ci);
      float mu = save_mean[c], invstd = save_invstd[c], g = gamma[c];
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (int n = 0; n < d.n; ++n) {
        const float* xp = x + (static_cast<long>(n) * d.c + c) * spatial;
        const float* gp = dy + (static_cast<long>(n) * d.c + c) * spatial;
        for (long s = 0; s < spatial; ++s) {
          float xhat = (xp[s] - mu) * invstd;
          sum_dy += gp[s];
          sum_dy_xhat += static_cast<double>(gp[s]) * xhat;
        }
      }
      dgamma[c] = static_cast<float>(sum_dy_xhat);
      dbeta[c] = static_cast<float>(sum_dy);
      float k1 = g * invstd / static_cast<float>(cnt);
      for (int n = 0; n < d.n; ++n) {
        const float* xp = x + (static_cast<long>(n) * d.c + c) * spatial;
        const float* gp = dy + (static_cast<long>(n) * d.c + c) * spatial;
        float* dp = dx + (static_cast<long>(n) * d.c + c) * spatial;
        for (long s = 0; s < spatial; ++s) {
          float xhat = (xp[s] - mu) * invstd;
          dp[s] += k1 * (static_cast<float>(cnt) * gp[s] - static_cast<float>(sum_dy) -
                         xhat * static_cast<float>(sum_dy_xhat));
        }
      }
    }
  });
}

}  // namespace sn::nn
