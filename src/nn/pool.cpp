#include "nn/pool.hpp"

#include <cstring>
#include <limits>

#include "util/threadpool.hpp"

namespace sn::nn {

void pool_forward(const PoolDesc& d, const float* x, float* y, int32_t* argmax) {
  const int oh = d.out_h(), ow = d.out_w();
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(0, static_cast<size_t>(d.n) * d.c, [&](size_t lo, size_t hi) {
    for (size_t nc = lo; nc < hi; ++nc) {
      const float* plane = x + nc * static_cast<size_t>(d.h) * d.w;
      float* out = y + nc * static_cast<size_t>(oh) * ow;
      int32_t* am = argmax ? argmax + nc * static_cast<size_t>(oh) * ow : nullptr;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          int y0 = oy * d.stride_h - d.pad_h, x0 = ox * d.stride_w - d.pad_w;
          if (d.max_pool) {
            float best = -std::numeric_limits<float>::infinity();
            int32_t best_idx = -1;
            for (int ki = 0; ki < d.kh; ++ki) {
              int iy = y0 + ki;
              if (iy < 0 || iy >= d.h) continue;
              for (int kj = 0; kj < d.kw; ++kj) {
                int ix = x0 + kj;
                if (ix < 0 || ix >= d.w) continue;
                float v = plane[static_cast<long>(iy) * d.w + ix];
                if (v > best) {
                  best = v;
                  best_idx = static_cast<int32_t>(iy * d.w + ix);
                }
              }
            }
            out[static_cast<long>(oy) * ow + ox] = best_idx >= 0 ? best : 0.0f;
            if (am) am[static_cast<long>(oy) * ow + ox] = best_idx;
          } else {
            double acc = 0.0;
            int count = 0;
            for (int ki = 0; ki < d.kh; ++ki) {
              int iy = y0 + ki;
              if (iy < 0 || iy >= d.h) continue;
              for (int kj = 0; kj < d.kw; ++kj) {
                int ix = x0 + kj;
                if (ix < 0 || ix >= d.w) continue;
                acc += plane[static_cast<long>(iy) * d.w + ix];
                ++count;
              }
            }
            out[static_cast<long>(oy) * ow + ox] =
                count ? static_cast<float>(acc / count) : 0.0f;
          }
        }
      }
    }
  });
}

void pool_backward(const PoolDesc& d, const float* dy, const int32_t* argmax, float* dx) {
  const int oh = d.out_h(), ow = d.out_w();
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(0, static_cast<size_t>(d.n) * d.c, [&](size_t lo, size_t hi) {
    for (size_t nc = lo; nc < hi; ++nc) {
      float* plane = dx + nc * static_cast<size_t>(d.h) * d.w;
      const float* g = dy + nc * static_cast<size_t>(oh) * ow;
      if (d.max_pool) {
        const int32_t* am = argmax + nc * static_cast<size_t>(oh) * ow;
        for (long i = 0; i < static_cast<long>(oh) * ow; ++i) {
          if (am[i] >= 0) plane[am[i]] += g[i];
        }
      } else {
        for (int oy = 0; oy < oh; ++oy) {
          for (int ox = 0; ox < ow; ++ox) {
            int y0 = oy * d.stride_h - d.pad_h, x0 = ox * d.stride_w - d.pad_w;
            int count = 0;
            for (int ki = 0; ki < d.kh; ++ki) {
              int iy = y0 + ki;
              if (iy < 0 || iy >= d.h) continue;
              for (int kj = 0; kj < d.kw; ++kj) {
                int ix = x0 + kj;
                if (ix >= 0 && ix < d.w) ++count;
              }
            }
            if (!count) continue;
            float gv = g[static_cast<long>(oy) * ow + ox] / static_cast<float>(count);
            for (int ki = 0; ki < d.kh; ++ki) {
              int iy = y0 + ki;
              if (iy < 0 || iy >= d.h) continue;
              for (int kj = 0; kj < d.kw; ++kj) {
                int ix = x0 + kj;
                if (ix >= 0 && ix < d.w) plane[static_cast<long>(iy) * d.w + ix] += gv;
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace sn::nn
