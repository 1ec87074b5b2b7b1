#include "nn/lrn.hpp"

#include <cmath>

#include "util/threadpool.hpp"

namespace sn::nn {

void lrn_forward(const LrnDesc& d, const float* x, float* y, float* scale) {
  const long spatial = static_cast<long>(d.h) * d.w;
  const int half = d.size / 2;
  const float alpha_over_n = d.alpha / static_cast<float>(d.size);
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.n), [&](size_t lo, size_t hi) {
    for (size_t ni = lo; ni < hi; ++ni) {
      const float* xn = x + static_cast<long>(ni) * d.c * spatial;
      float* yn = y + static_cast<long>(ni) * d.c * spatial;
      float* sn = scale + static_cast<long>(ni) * d.c * spatial;
      for (long s = 0; s < spatial; ++s) {
        for (int c = 0; c < d.c; ++c) {
          int lo = c - half < 0 ? 0 : c - half;
          int hi = c + half >= d.c ? d.c - 1 : c + half;
          double acc = 0.0;
          for (int cc = lo; cc <= hi; ++cc) {
            float v = xn[static_cast<long>(cc) * spatial + s];
            acc += static_cast<double>(v) * v;
          }
          float sc = d.k + alpha_over_n * static_cast<float>(acc);
          sn[static_cast<long>(c) * spatial + s] = sc;
          yn[static_cast<long>(c) * spatial + s] =
              xn[static_cast<long>(c) * spatial + s] * std::pow(sc, -d.beta);
        }
      }
    }
  });
}

void lrn_backward(const LrnDesc& d, const float* x, const float* y, const float* scale,
                  const float* dy, float* dx) {
  const long spatial = static_cast<long>(d.h) * d.w;
  const int half = d.size / 2;
  const float ratio = 2.0f * d.alpha * d.beta / static_cast<float>(d.size);
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.n), [&](size_t lo, size_t hi) {
    for (size_t ni = lo; ni < hi; ++ni) {
      const float* xn = x + static_cast<long>(ni) * d.c * spatial;
      const float* yn = y + static_cast<long>(ni) * d.c * spatial;
      const float* sn = scale + static_cast<long>(ni) * d.c * spatial;
      const float* gn = dy + static_cast<long>(ni) * d.c * spatial;
      float* dn = dx + static_cast<long>(ni) * d.c * spatial;
      for (long s = 0; s < spatial; ++s) {
        for (int c = 0; c < d.c; ++c) {
          // Direct term.
          long ci = static_cast<long>(c) * spatial + s;
          float acc = gn[ci] * std::pow(sn[ci], -d.beta);
          // Cross terms: every channel c' whose window contains c.
          int lo = c - half < 0 ? 0 : c - half;
          int hi = c + half >= d.c ? d.c - 1 : c + half;
          double cross = 0.0;
          for (int cc = lo; cc <= hi; ++cc) {
            long cj = static_cast<long>(cc) * spatial + s;
            cross += static_cast<double>(gn[cj]) * yn[cj] / sn[cj];
          }
          dn[ci] += acc - ratio * xn[ci] * static_cast<float>(cross);
        }
      }
    }
  });
}

}  // namespace sn::nn
