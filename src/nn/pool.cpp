#include "nn/pool.hpp"

#include <limits>

#include "nn/span.hpp"
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
        const int y0 = oy * d.stride_h - d.pad_h;
        const Span ki_in = stride_range(-y0, d.h - y0, 1, d.kh);
        for (int ox = 0; ox < ow; ++ox) {
          const int x0 = ox * d.stride_w - d.pad_w;
          const Span kj_in = stride_range(-x0, d.w - x0, 1, d.kw);
          const long o = static_cast<long>(oy) * ow + ox;
          if (d.max_pool) {
            // The first strictly greatest tap in (ki, kj) order wins, taken
            // with selects rather than a data-dependent branch; a NaN never
            // compares greater, so it is never picked.
            float best = -std::numeric_limits<float>::infinity();
            int32_t best_idx = -1;
            for (int ki = ki_in.lo; ki < ki_in.hi; ++ki) {
              const int row = (y0 + ki) * d.w + x0;
              for (int kj = kj_in.lo; kj < kj_in.hi; ++kj) {
                const float v = plane[row + kj];
                const bool gt = v > best;
                best = gt ? v : best;
                best_idx = gt ? row + kj : best_idx;
              }
            }
            out[o] = best_idx >= 0 ? best : 0.0f;
            if (am) am[o] = best_idx;
          } else {
            double acc = 0.0;
            for (int ki = ki_in.lo; ki < ki_in.hi; ++ki) {
              const long row = static_cast<long>(y0 + ki) * d.w + x0;
              for (int kj = kj_in.lo; kj < kj_in.hi; ++kj) acc += plane[row + kj];
            }
            const int count = (ki_in.hi - ki_in.lo) * (kj_in.hi - kj_in.lo);
            out[o] = count ? static_cast<float>(acc / count) : 0.0f;
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
          const int y0 = oy * d.stride_h - d.pad_h;
          const Span ki_in = stride_range(-y0, d.h - y0, 1, d.kh);
          for (int ox = 0; ox < ow; ++ox) {
            const int x0 = ox * d.stride_w - d.pad_w;
            const Span kj_in = stride_range(-x0, d.w - x0, 1, d.kw);
            const int count = (ki_in.hi - ki_in.lo) * (kj_in.hi - kj_in.lo);
            if (!count) continue;
            const float gv = g[static_cast<long>(oy) * ow + ox] / static_cast<float>(count);
            for (int ki = ki_in.lo; ki < ki_in.hi; ++ki) {
              const long row = static_cast<long>(y0 + ki) * d.w + x0;
              for (int kj = kj_in.lo; kj < kj_in.hi; ++kj) plane[row + kj] += gv;
            }
          }
        }
      }
    }
  });
}

}  // namespace sn::nn
