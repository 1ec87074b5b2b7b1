#include "nn/conv.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/fft.hpp"
#include "nn/winograd.hpp"
#include "util/pairwise.hpp"
#include "util/threadpool.hpp"

namespace sn::nn {

namespace {

/// Column-buffer elements for one image (im2col workspace unit).
uint64_t col_elems(const ConvDesc& d) {
  return static_cast<uint64_t>(d.c) * d.kh * d.kw * d.out_h() * d.out_w();
}

/// Batch-scale column buffer, one slice per image — matching cuDNN, whose
/// GEMM/FFT algorithms allocate workspace proportional to the batch. The
/// batch scaling is what makes the paper's dynamic workspace allocation a
/// real trade-off (Fig. 12).
uint64_t col_bytes(const ConvDesc& d) {
  return col_elems(d) * d.n * sizeof(float);
}

// --- direct (workspace-free) kernels -----------------------------------------
//
// Each kernel keeps a block of kLanes channels in register-resident
// accumulators and makes its innermost loop run over that block. The blocks
// are generic (GCC/Clang) vectors of the x86-64 baseline width: two doubles or
// four floats per SSE2 register; other targets lower them to their own SIMD
// or to scalars. The padding bounds are solved once per position or tap (the
// ranges below), never per term. Channels past the last one fill their lanes
// with zero weights or gradients and are never stored. Per element, every
// kernel adds the same terms in the same order as the plain nested loops
// documented in conv.hpp, so the results are bit for bit independent of the
// blocking.

using F64x2 = double __attribute__((vector_size(16)));
using F32x4 = float __attribute__((vector_size(16)));
constexpr int kLanes = 8;
constexpr int kF64Vecs = kLanes / 2;
constexpr int kF32Vecs = kLanes / 4;

/// Half-open index range.
struct Span {
  int lo, hi;
};

/// The indices i in [0, count) with lo <= i * stride < hi. Every padding
/// bound of the direct kernels is one such range, solved once per position
/// or tap instead of once per term.
Span stride_range(int lo, int hi, int stride, int count) {
  const int first = lo <= 0 ? 0 : (lo + stride - 1) / stride;
  const int end = hi <= 0 ? 0 : std::min(count, (hi + stride - 1) / stride);
  return {first, std::max(first, end)};
}

int lane_blocks(int channels) { return (channels + kLanes - 1) / kLanes; }

void direct_forward(const ConvDesc& d, const float* x, const float* w, const float* bias,
                    float* y) {
  const int oh = d.out_h(), ow = d.out_w();
  const long ohw = static_cast<long>(oh) * ow;
  const int taps = d.c * d.kh * d.kw;
  const int blocks = lane_blocks(d.k);
  // Filter panel [block][c][ki][kj][lane], widened to double up front (the
  // products are exact in double either way).
  std::vector<F64x2> panel(static_cast<size_t>(blocks) * taps * kF64Vecs);
  for (int k = 0; k < d.k; ++k)
    for (int t = 0; t < taps; ++t)
      panel[(static_cast<size_t>(k / kLanes) * taps + t) * kF64Vecs + k % kLanes / 2][k % 2] =
          w[static_cast<long>(k) * taps + t];
  const size_t tasks = static_cast<size_t>(d.n) * blocks;
  util::ThreadPool::global().parallel_for(0, tasks, [&](size_t lo, size_t hi) {
    for (size_t nb = lo; nb < hi; ++nb) {
      const int n = static_cast<int>(nb) / blocks;
      const int k0 = static_cast<int>(nb) % blocks * kLanes;
      const int lanes = std::min(kLanes, d.k - k0);
      const float* xi = x + static_cast<long>(n) * d.c * d.h * d.w;
      const F64x2* pb = panel.data() + static_cast<size_t>(k0 / kLanes) * taps * kF64Vecs;
      float* yo = y + (static_cast<long>(n) * d.k + k0) * ohw;
      F64x2 init[kF64Vecs] = {};
      for (int l = 0; l < lanes; ++l) init[l / 2][l % 2] = bias ? bias[k0 + l] : 0.0f;
      for (int oy = 0; oy < oh; ++oy) {
        // Taps ki whose row oy * stride - pad + ki lies inside the image.
        const int y0 = oy * d.stride_h - d.pad_h;
        const Span ki_in = stride_range(-y0, d.h - y0, 1, d.kh);
        for (int ox = 0; ox < ow; ++ox) {
          const int x0 = ox * d.stride_w - d.pad_w;
          const Span kj_in = stride_range(-x0, d.w - x0, 1, d.kw);
          F64x2 acc[kF64Vecs];
          for (int v = 0; v < kF64Vecs; ++v) acc[v] = init[v];
          for (int c = 0; c < d.c; ++c) {
            for (int ki = ki_in.lo; ki < ki_in.hi; ++ki) {
              const float* row = xi + (static_cast<long>(c) * d.h + y0 + ki) * d.w + x0;
              const F64x2* wrow = pb + (c * d.kh + ki) * d.kw * kF64Vecs;
              for (int kj = kj_in.lo; kj < kj_in.hi; ++kj) {
                const double xv = row[kj];
                const F64x2* wt = wrow + kj * kF64Vecs;
                for (int v = 0; v < kF64Vecs; ++v) acc[v] += xv * wt[v];
              }
            }
          }
          float* yp = yo + static_cast<long>(oy) * ow + ox;
          for (int l = 0; l < lanes; ++l) yp[l * ohw] = static_cast<float>(acc[l / 2][l % 2]);
        }
      }
    }
  });
}

void im2col_forward(const ConvDesc& d, const float* x, const float* w, const float* bias, float* y,
                    float* ws) {
  const Conv2dGeom g = d.geom();
  const int oh = d.out_h(), ow = d.out_w();
  const long ospatial = static_cast<long>(oh) * ow;
  const int ck = d.c * d.kh * d.kw;
  const uint64_t slice = col_elems(d);
  // Each image owns a workspace slice; nested sgemm runs inline per lane.
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.n), [&](size_t lo, size_t hi) {
    for (size_t n = lo; n < hi; ++n) {
      float* col = ws + n * slice;
      im2col(g, x + static_cast<long>(n) * d.c * d.h * d.w, col);
      float* yo = y + static_cast<long>(n) * d.k * ospatial;
      sgemm(false, false, d.k, static_cast<int>(ospatial), ck, 1.0f, w, ck, col,
            static_cast<int>(ospatial), 0.0f, yo, static_cast<int>(ospatial));
      if (bias) {
        for (int k = 0; k < d.k; ++k) {
          float bv = bias[k];
          float* row = yo + static_cast<long>(k) * ospatial;
          for (long i = 0; i < ospatial; ++i) row[i] += bv;
        }
      }
    }
  });
}

void fft_forward(const ConvDesc& d, const float* x, const float* w, const float* bias, float* y,
                 float* ws) {
  const Conv2dGeom g = d.geom();
  const long in_stride = static_cast<long>(d.c) * d.h * d.w;
  const long out_stride = static_cast<long>(d.k) * d.out_h() * d.out_w();
  const uint64_t slice = fft_conv_workspace_floats(g);
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.n), [&](size_t lo, size_t hi) {
    for (size_t n = lo; n < hi; ++n) {
      fft_conv_forward_image(g, d.k, x + n * in_stride, w, bias, y + n * out_stride,
                             ws + n * slice);
    }
  });
}

void winograd_forward(const ConvDesc& d, const float* x, const float* w, const float* bias,
                      float* y, float* ws) {
  const Conv2dGeom g = d.geom();
  const long in_stride = static_cast<long>(d.c) * d.h * d.w;
  const long out_stride = static_cast<long>(d.k) * d.out_h() * d.out_w();
  const uint64_t slice = winograd_workspace_floats(d.k, d.c, d.out_h(), d.out_w());
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.n), [&](size_t lo, size_t hi) {
    for (size_t n = lo; n < hi; ++n) {
      winograd_forward_image(g, d.k, x + n * in_stride, w, bias, y + n * out_stride,
                             ws + n * slice);
    }
  });
}

void direct_backward_data(const ConvDesc& d, const float* w, const float* dy, float* dx) {
  const int oh = d.out_h(), ow = d.out_w();
  const int khw = d.kh * d.kw;
  const long hw = static_cast<long>(d.h) * d.w;
  const int blocks = lane_blocks(d.c);
  // Filter panel [block][k][ki][kj][lane] over input channels.
  std::vector<F32x4> panel(static_cast<size_t>(blocks) * d.k * khw * kF32Vecs);
  for (int k = 0; k < d.k; ++k)
    for (int c = 0; c < d.c; ++c)
      for (int t = 0; t < khw; ++t)
        panel[((static_cast<size_t>(c / kLanes) * d.k + k) * khw + t) * kF32Vecs +
              c % kLanes / 4][c % 4] = w[(static_cast<long>(k) * d.c + c) * khw + t];
  constexpr F32x4 kMinusZero = {-0.0f, -0.0f, -0.0f, -0.0f};
  // Gathers each input position's terms: k, then oy, then ox ascending, which
  // is the order a scatter over (k, oy, ox) delivers them in.
  const size_t tasks = static_cast<size_t>(d.n) * blocks;
  util::ThreadPool::global().parallel_for(0, tasks, [&](size_t lo, size_t hi) {
    for (size_t nb = lo; nb < hi; ++nb) {
      const int n = static_cast<int>(nb) / blocks;
      const int c0 = static_cast<int>(nb) % blocks * kLanes;
      const int lanes = std::min(kLanes, d.c - c0);
      float* dxi = dx + (static_cast<long>(n) * d.c + c0) * hw;
      const float* dyi = dy + static_cast<long>(n) * d.k * oh * ow;
      const F32x4* pb = panel.data() + static_cast<size_t>(c0 / kLanes) * d.k * khw * kF32Vecs;
      for (int iy = 0; iy < d.h; ++iy) {
        // Outputs oy that read row iy through a tap ki = iy + pad - oy * stride
        // in [0, kh); ascending oy visits descending ki.
        const Span oy_in = stride_range(iy + d.pad_h - d.kh + 1, iy + d.pad_h + 1, d.stride_h, oh);
        for (int ix = 0; ix < d.w; ++ix) {
          const Span ox_in =
              stride_range(ix + d.pad_w - d.kw + 1, ix + d.pad_w + 1, d.stride_w, ow);
          float* xp = dxi + static_cast<long>(iy) * d.w + ix;
          F32x4 acc[kF32Vecs] = {};
          for (int l = 0; l < lanes; ++l) acc[l / 4][l % 4] = xp[l * hw];
          for (int k = 0; k < d.k; ++k) {
            const float* dyk = dyi + static_cast<long>(k) * oh * ow;
            const F32x4* wk = pb + static_cast<size_t>(k) * khw * kF32Vecs;
            for (int oy = oy_in.lo; oy < oy_in.hi; ++oy) {
              const int ki = iy + d.pad_h - oy * d.stride_h;
              for (int ox = ox_in.lo; ox < ox_in.hi; ++ox) {
                const float gs = dyk[static_cast<long>(oy) * ow + ox];
                const F32x4 g = {gs, gs, gs, gs};
                const F32x4* wt = wk + (ki * d.kw + ix + d.pad_w - ox * d.stride_w) * kF32Vecs;
                // A zero g adds -0.0 in place of its term, without a branch
                // (zero gradients are common after a ReLU). x + -0 is x for
                // every x in round-to-nearest, +0 and -0 included.
                for (int v = 0; v < kF32Vecs; ++v) acc[v] += g != 0.0f ? g * wt[v] : kMinusZero;
              }
            }
          }
          for (int l = 0; l < lanes; ++l) xp[l * hw] = acc[l / 4][l % 4];
        }
      }
    }
  });
}

void im2col_backward_data(const ConvDesc& d, const float* w, const float* dy, float* dx,
                          float* ws) {
  const Conv2dGeom g = d.geom();
  const long ospatial = static_cast<long>(d.out_h()) * d.out_w();
  const int ck = d.c * d.kh * d.kw;
  const uint64_t slice = col_elems(d);
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(d.n), [&](size_t lo, size_t hi) {
    for (size_t n = lo; n < hi; ++n) {
      float* col = ws + n * slice;
      // colgrad (CK x OS) = Wᵀ (CK x K) * dy_n (K x OS)
      sgemm(true, false, ck, static_cast<int>(ospatial), d.k, 1.0f, w, ck,
            dy + static_cast<long>(n) * d.k * ospatial, static_cast<int>(ospatial), 0.0f, col,
            static_cast<int>(ospatial));
      col2im(g, col, dx + static_cast<long>(n) * d.c * d.h * d.w);
    }
  });
}

void direct_backward_filter(const ConvDesc& d, const float* x, const float* dy, float* dw,
                            float* db) {
  const int oh = d.out_h(), ow = d.out_w();
  const long ohw = static_cast<long>(oh) * ow;
  const size_t wdim = static_cast<size_t>(d.c) * d.kh * d.kw;
  // Per-sample contributions accumulate in double with a fixed spatial
  // order, are cast to float, and reduce over the batch as a pairwise tree
  // (shard-composable — data-parallel replicas must be able to reproduce
  // the full-batch gradient bit for bit; see util/pairwise.hpp). Each task
  // owns one block of output channels and one tree per channel.
  const int blocks = lane_blocks(d.k);
  const auto nblocks = static_cast<size_t>(blocks);
  util::ThreadPool::global().parallel_for(0, nblocks, [&](size_t lo, size_t hi) {
    for (size_t bi = lo; bi < hi; ++bi) {
      const int k0 = static_cast<int>(bi) * kLanes;
      const int lanes = std::min(kLanes, d.k - k0);
      std::vector<util::PairwiseVecAccumulator> acc(lanes, util::PairwiseVecAccumulator(wdim));
      std::vector<float> leaves(lanes * wdim);
      std::vector<F64x2> grad(ohw * kF64Vecs);  // [oy][ox][lane]
      std::vector<float> db_leaf(db ? static_cast<size_t>(lanes) * d.n : 0);
      for (int n = 0; n < d.n; ++n) {
        const float* xi = x + static_cast<long>(n) * d.c * d.h * d.w;
        const float* dyn = dy + (static_cast<long>(n) * d.k + k0) * ohw;
        F64x2 dbn[kF64Vecs] = {};
        for (long p = 0; p < ohw; ++p) {
          F64x2* gp = grad.data() + p * kF64Vecs;
          for (int l = 0; l < lanes; ++l) gp[l / 2][l % 2] = dyn[l * ohw + p];
          for (int v = 0; v < kF64Vecs; ++v) dbn[v] += gp[v];
        }
        for (int c = 0; c < d.c; ++c) {
          for (int ki = 0; ki < d.kh; ++ki) {
            // Outputs oy whose tap ki reads row oy * stride - pad + ki inside
            // the image.
            const Span oy_in = stride_range(d.pad_h - ki, d.h + d.pad_h - ki, d.stride_h, oh);
            for (int kj = 0; kj < d.kw; ++kj) {
              const Span ox_in = stride_range(d.pad_w - kj, d.w + d.pad_w - kj, d.stride_w, ow);
              F64x2 sum[kF64Vecs] = {};
              for (int oy = oy_in.lo; oy < oy_in.hi; ++oy) {
                const float* row =
                    xi + (static_cast<long>(c) * d.h + oy * d.stride_h - d.pad_h + ki) * d.w + kj -
                    d.pad_w;
                const F64x2* grow = grad.data() + static_cast<long>(oy) * ow * kF64Vecs;
                for (int ox = ox_in.lo; ox < ox_in.hi; ++ox) {
                  const double xv = row[ox * d.stride_w];
                  const F64x2* g = grow + ox * kF64Vecs;
                  // A zero g adds +0.0 in place of its term, without a branch.
                  // That leaves the sum unchanged: it starts at +0.0, and a
                  // round-to-nearest sum is -0 only if both operands are.
                  for (int v = 0; v < kF64Vecs; ++v) sum[v] += g[v] != 0.0 ? g[v] * xv : F64x2{};
                }
              }
              const size_t tap = (static_cast<size_t>(c) * d.kh + ki) * d.kw + kj;
              for (int l = 0; l < lanes; ++l)
                leaves[l * wdim + tap] = static_cast<float>(sum[l / 2][l % 2]);
            }
          }
        }
        for (int l = 0; l < lanes; ++l) {
          acc[l].push(leaves.data() + l * wdim);
          if (db) db_leaf[static_cast<size_t>(l) * d.n + n] = static_cast<float>(dbn[l / 2][l % 2]);
        }
      }
      for (int l = 0; l < lanes; ++l) {
        acc[l].finish(dw + static_cast<long>(k0 + l) * wdim);
        if (db) {
          db[k0 + l] = util::pairwise_sum<float>(static_cast<uint64_t>(d.n), [&](uint64_t n) {
            return db_leaf[static_cast<size_t>(l) * d.n + n];
          });
        }
      }
    }
  });
}

void im2col_backward_filter(const ConvDesc& d, const float* x, const float* dy, float* dw,
                            float* db, float* ws) {
  const Conv2dGeom g = d.geom();
  const long ospatial = static_cast<long>(d.out_h()) * d.out_w();
  const int ck = d.c * d.kh * d.kw;
  const size_t wdim = static_cast<size_t>(d.k) * ck;
  // Images run sequentially (the column slice still comes from the
  // batch-scale workspace); each image's dW lands in a scratch leaf and the
  // batch reduces as a pairwise tree, matching the direct path bit for bit
  // (same per-sample products in the same spatial order; see conv.hpp).
  util::PairwiseVecAccumulator acc(wdim);
  std::vector<float> leaf(wdim);
  for (int n = 0; n < d.n; ++n) {
    float* col = ws + static_cast<uint64_t>(n) * col_elems(d);
    im2col(g, x + static_cast<long>(n) * d.c * d.h * d.w, col);
    // dW_n (K x CK) = dy_n (K x OS) * colᵀ (OS x CK)
    sgemm(false, true, d.k, ck, static_cast<int>(ospatial), 1.0f,
          dy + static_cast<long>(n) * d.k * ospatial, static_cast<int>(ospatial), col,
          static_cast<int>(ospatial), 0.0f, leaf.data(), ck);
    acc.push(leaf.data());
  }
  acc.finish(dw);
  if (db) {
    for (int k = 0; k < d.k; ++k) {
      db[k] = util::pairwise_sum<float>(static_cast<uint64_t>(d.n), [&](uint64_t n) {
        const float* row = dy + (static_cast<long>(n) * d.k + k) * ospatial;
        double spatial = 0.0;
        for (long i = 0; i < ospatial; ++i) spatial += row[i];
        return static_cast<float>(spatial);
      });
    }
  }
}

}  // namespace

const char* algo_name(ConvAlgo a) {
  switch (a) {
    case ConvAlgo::kDirect: return "DIRECT";
    case ConvAlgo::kIm2colGemm: return "IM2COL_GEMM";
    case ConvAlgo::kWinograd: return "WINOGRAD";
    case ConvAlgo::kFftTiled: return "FFT_TILED";
  }
  return "?";
}

bool conv_algo_supported(const ConvDesc& d, ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirect:
    case ConvAlgo::kIm2colGemm:
      return true;
    case ConvAlgo::kWinograd:
      return d.kh == 3 && d.kw == 3 && d.stride_h == 1 && d.stride_w == 1;
    case ConvAlgo::kFftTiled:
      return d.stride_h == 1 && d.stride_w == 1 && d.kh <= d.h && d.kw <= d.w;
  }
  return false;
}

uint64_t conv_workspace_bytes(const ConvDesc& d, ConvAlgo algo, ConvPass pass) {
  if (!conv_algo_supported(d, algo)) return 0;
  switch (algo) {
    case ConvAlgo::kDirect:
      return 0;
    case ConvAlgo::kIm2colGemm:
      return col_bytes(d);
    case ConvAlgo::kWinograd:
      if (pass == ConvPass::kForward)
        return winograd_workspace_floats(d.k, d.c, d.out_h(), d.out_w()) * sizeof(float) *
               static_cast<uint64_t>(d.n);
      return col_bytes(d);  // backward passes run the im2col path
    case ConvAlgo::kFftTiled: {
      // Per-image frequency-domain buffers: C input spectra + filter +
      // accumulator planes, complex (2 floats) per point, pow2 padding — the
      // reason FFT is the workspace-hungriest choice on cuDNN as well. The
      // reservation (c + k + min) planes exceeds the execution's (c + 2),
      // covering cuDNN-style output-spectrum caching.
      FftPlan p = fft_plan(d.geom());
      uint64_t planes = static_cast<uint64_t>(d.c) + d.k + std::min(d.c, d.k);
      uint64_t fft = 2 * sizeof(float) * p.plane() * planes * static_cast<uint64_t>(d.n);
      return std::max(fft, col_bytes(d));  // backward still uses the im2col path
    }
  }
  return 0;
}

double conv_algo_efficiency(const ConvDesc& d, ConvAlgo algo, ConvPass pass) {
  if (!conv_algo_supported(d, algo)) return 0.0;
  double eff = 0.0;
  switch (algo) {
    case ConvAlgo::kDirect:
      eff = 0.18;
      break;
    case ConvAlgo::kIm2colGemm:
      eff = 0.45;
      break;
    case ConvAlgo::kWinograd:
      // 2.25x arithmetic reduction for F(2x2,3x3) folded into efficiency.
      eff = 0.62;
      break;
    case ConvAlgo::kFftTiled:
      // FFT amortizes better the bigger the kernel; for 3x3 it trails
      // Winograd, from 5x5 up it is the fastest option (mirrors cuDNN).
      eff = std::min(0.68, 0.18 + 0.06 * std::max(d.kh, d.kw));
      break;
  }
  if (pass != ConvPass::kForward) eff *= 0.9;  // backward kernels run slightly worse
  return eff;
}

double conv_flops(const ConvDesc& d, ConvPass) {
  return 2.0 * d.n * d.k * d.c * d.kh * d.kw * d.out_h() * d.out_w();
}

void conv_forward(const ConvDesc& d, ConvAlgo algo, const float* x, const float* w,
                  const float* bias, float* y, float* ws) {
  assert(conv_algo_supported(d, algo));
  const float* b = d.has_bias ? bias : nullptr;
  switch (algo) {
    case ConvAlgo::kDirect:
      direct_forward(d, x, w, b, y);
      return;
    case ConvAlgo::kWinograd:
      winograd_forward(d, x, w, b, y, ws);
      return;
    case ConvAlgo::kIm2colGemm:
      im2col_forward(d, x, w, b, y, ws);
      return;
    case ConvAlgo::kFftTiled:
      fft_forward(d, x, w, b, y, ws);
      return;
  }
}

void conv_backward_data(const ConvDesc& d, ConvAlgo algo, const float* w, const float* dy,
                        float* dx, float* ws) {
  if (algo == ConvAlgo::kDirect || ws == nullptr) {
    direct_backward_data(d, w, dy, dx);
  } else {
    im2col_backward_data(d, w, dy, dx, ws);
  }
}

void conv_backward_filter(const ConvDesc& d, ConvAlgo algo, const float* x, const float* dy,
                          float* dw, float* db, float* ws) {
  if (algo == ConvAlgo::kDirect || ws == nullptr) {
    direct_backward_filter(d, x, dy, dw, d.has_bias ? db : nullptr);
  } else {
    im2col_backward_filter(d, x, dy, dw, d.has_bias ? db : nullptr, ws);
  }
}

}  // namespace sn::nn
