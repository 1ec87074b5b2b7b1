// Convolution algorithm tests: every algorithm must agree with the direct
// reference on its supported geometries within tolerance (this is the
// property the paper's dynamic algorithm selection relies on — any feasible
// algorithm is interchangeable), the direct kernels must equal the plain
// nested loops below bit for bit, plus workspace/efficiency metadata sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "util/pairwise.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace sn::nn;
namespace util = sn::util;

struct ConvCase {
  int n, c, h, w, k, kh, kw, stride, pad;
};

std::vector<float> random_vec(size_t n, uint64_t seed) {
  sn::util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

ConvDesc make_desc(const ConvCase& p) {
  ConvDesc d;
  d.n = p.n;
  d.c = p.c;
  d.h = p.h;
  d.w = p.w;
  d.k = p.k;
  d.kh = p.kh;
  d.kw = p.kw;
  d.stride_h = d.stride_w = p.stride;
  d.pad_h = d.pad_w = p.pad;
  return d;
}

class ConvAlgoAgreement : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvAlgoAgreement, AllSupportedAlgosMatchDirect) {
  ConvDesc d = make_desc(GetParam());
  auto x = random_vec(d.in_elems(), 1);
  auto w = random_vec(d.weight_elems(), 2);
  auto b = random_vec(static_cast<size_t>(d.k), 3);
  std::vector<float> y_ref(d.out_elems());
  conv_forward(d, ConvAlgo::kDirect, x.data(), w.data(), b.data(), y_ref.data(), nullptr);

  for (ConvAlgo algo : {ConvAlgo::kIm2colGemm, ConvAlgo::kWinograd, ConvAlgo::kFftTiled}) {
    if (!conv_algo_supported(d, algo)) continue;
    std::vector<float> ws(conv_workspace_bytes(d, algo, ConvPass::kForward) / sizeof(float) + 1);
    std::vector<float> y(d.out_elems(), -99.0f);
    conv_forward(d, algo, x.data(), w.data(), b.data(), y.data(), ws.data());
    for (size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 2e-3f) << algo_name(algo) << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvAlgoAgreement,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 3, 1, 1},      // minimal 3x3
                      ConvCase{2, 3, 8, 8, 4, 3, 3, 1, 1},      // winograd-eligible
                      ConvCase{2, 3, 9, 7, 4, 3, 3, 1, 0},      // odd sizes, no pad
                      ConvCase{1, 2, 8, 8, 3, 3, 3, 2, 1},      // strided (no winograd/fft)
                      ConvCase{2, 3, 11, 11, 4, 5, 5, 1, 2},    // 5x5
                      ConvCase{1, 4, 7, 7, 2, 1, 1, 1, 0},      // 1x1 pointwise
                      ConvCase{1, 2, 9, 9, 3, 7, 7, 1, 3},      // 7x7
                      ConvCase{1, 3, 6, 10, 2, 1, 7, 1, 0},     // asymmetric 1x7
                      ConvCase{1, 3, 10, 6, 2, 7, 1, 1, 0},     // asymmetric 7x1
                      ConvCase{3, 5, 13, 13, 7, 3, 3, 1, 1}));  // larger batch

TEST(ConvAlgo, SupportEnvelope) {
  ConvDesc d3 = make_desc({1, 3, 8, 8, 4, 3, 3, 1, 1});
  EXPECT_TRUE(conv_algo_supported(d3, ConvAlgo::kWinograd));
  EXPECT_TRUE(conv_algo_supported(d3, ConvAlgo::kFftTiled));

  ConvDesc strided = make_desc({1, 3, 8, 8, 4, 3, 3, 2, 1});
  EXPECT_FALSE(conv_algo_supported(strided, ConvAlgo::kWinograd));
  EXPECT_FALSE(conv_algo_supported(strided, ConvAlgo::kFftTiled));
  EXPECT_TRUE(conv_algo_supported(strided, ConvAlgo::kDirect));
  EXPECT_TRUE(conv_algo_supported(strided, ConvAlgo::kIm2colGemm));

  ConvDesc d5 = make_desc({1, 3, 8, 8, 4, 5, 5, 1, 2});
  EXPECT_FALSE(conv_algo_supported(d5, ConvAlgo::kWinograd));
}

TEST(ConvAlgo, WorkspaceOrdering) {
  // The paper's premise: direct needs none, FFT needs the most.
  ConvDesc d = make_desc({32, 64, 56, 56, 64, 3, 3, 1, 1});
  uint64_t ws_direct = conv_workspace_bytes(d, ConvAlgo::kDirect, ConvPass::kForward);
  uint64_t ws_im2col = conv_workspace_bytes(d, ConvAlgo::kIm2colGemm, ConvPass::kForward);
  uint64_t ws_fft = conv_workspace_bytes(d, ConvAlgo::kFftTiled, ConvPass::kForward);
  EXPECT_EQ(ws_direct, 0u);
  EXPECT_GT(ws_im2col, 0u);
  EXPECT_GE(ws_fft, ws_im2col);
}

TEST(ConvAlgo, EfficiencyOrdering) {
  ConvDesc d3 = make_desc({32, 64, 56, 56, 64, 3, 3, 1, 1});
  // 3x3: winograd > im2col > direct; fft beats im2col too but trails winograd.
  double direct = conv_algo_efficiency(d3, ConvAlgo::kDirect, ConvPass::kForward);
  double im2col = conv_algo_efficiency(d3, ConvAlgo::kIm2colGemm, ConvPass::kForward);
  double wino = conv_algo_efficiency(d3, ConvAlgo::kWinograd, ConvPass::kForward);
  double fft = conv_algo_efficiency(d3, ConvAlgo::kFftTiled, ConvPass::kForward);
  EXPECT_LT(direct, im2col);
  EXPECT_LT(im2col, wino);
  EXPECT_LT(fft, wino);
  // 7x7 stride 1: FFT becomes the fastest (cuDNN-like behaviour).
  ConvDesc d7 = make_desc({32, 64, 56, 56, 64, 7, 7, 1, 3});
  EXPECT_GT(conv_algo_efficiency(d7, ConvAlgo::kFftTiled, ConvPass::kForward),
            conv_algo_efficiency(d7, ConvAlgo::kIm2colGemm, ConvPass::kForward));
}

TEST(ConvAlgo, BackwardEfficiencyDiscounted) {
  ConvDesc d = make_desc({1, 3, 8, 8, 4, 3, 3, 1, 1});
  EXPECT_LT(conv_algo_efficiency(d, ConvAlgo::kIm2colGemm, ConvPass::kBackwardData),
            conv_algo_efficiency(d, ConvAlgo::kIm2colGemm, ConvPass::kForward));
}

TEST(ConvAlgo, FlopCount) {
  ConvDesc d = make_desc({2, 3, 8, 8, 4, 3, 3, 1, 1});
  // 2 * N*K*C*KH*KW*OH*OW = 2*2*4*3*3*3*8*8
  EXPECT_DOUBLE_EQ(conv_flops(d, ConvPass::kForward), 2.0 * 2 * 4 * 3 * 9 * 64);
}

TEST(ConvBackward, Im2colMatchesDirect) {
  ConvDesc d = make_desc({2, 3, 8, 8, 4, 3, 3, 1, 1});
  auto x = random_vec(d.in_elems(), 1);
  auto w = random_vec(d.weight_elems(), 2);
  auto dy = random_vec(d.out_elems(), 3);

  std::vector<float> dx_ref(d.in_elems(), 0.0f), dx(d.in_elems(), 0.0f);
  std::vector<float> dw_ref(d.weight_elems()), dw(d.weight_elems());
  std::vector<float> db_ref(d.k), db(d.k);
  std::vector<float> ws(conv_workspace_bytes(d, ConvAlgo::kIm2colGemm, ConvPass::kBackwardData) /
                            sizeof(float) +
                        1);

  conv_backward_data(d, ConvAlgo::kDirect, w.data(), dy.data(), dx_ref.data(), nullptr);
  conv_backward_data(d, ConvAlgo::kIm2colGemm, w.data(), dy.data(), dx.data(), ws.data());
  for (size_t i = 0; i < dx.size(); ++i) ASSERT_NEAR(dx[i], dx_ref[i], 2e-3f);

  conv_backward_filter(d, ConvAlgo::kDirect, x.data(), dy.data(), dw_ref.data(), db_ref.data(),
                       nullptr);
  conv_backward_filter(d, ConvAlgo::kIm2colGemm, x.data(), dy.data(), dw.data(), db.data(),
                       ws.data());
  for (size_t i = 0; i < dw.size(); ++i) ASSERT_NEAR(dw[i], dw_ref[i], 2e-3f);
  for (size_t i = 0; i < db.size(); ++i) ASSERT_NEAR(db[i], db_ref[i], 2e-3f);
}

class ConvBackwardSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBackwardSweep, Im2colBackwardMatchesDirect) {
  ConvDesc d = make_desc(GetParam());
  auto x = random_vec(d.in_elems(), 5);
  auto w = random_vec(d.weight_elems(), 6);
  auto dy = random_vec(d.out_elems(), 7);
  std::vector<float> dx_ref(d.in_elems(), 0.0f), dx(d.in_elems(), 0.0f);
  std::vector<float> dw_ref(d.weight_elems()), dw(d.weight_elems());
  std::vector<float> db_ref(d.k), db(d.k);
  std::vector<float> ws(conv_workspace_bytes(d, ConvAlgo::kIm2colGemm, ConvPass::kBackwardData) /
                            sizeof(float) +
                        1);
  conv_backward_data(d, ConvAlgo::kDirect, w.data(), dy.data(), dx_ref.data(), nullptr);
  conv_backward_data(d, ConvAlgo::kIm2colGemm, w.data(), dy.data(), dx.data(), ws.data());
  conv_backward_filter(d, ConvAlgo::kDirect, x.data(), dy.data(), dw_ref.data(), db_ref.data(),
                       nullptr);
  conv_backward_filter(d, ConvAlgo::kIm2colGemm, x.data(), dy.data(), dw.data(), db.data(),
                       ws.data());
  for (size_t i = 0; i < dx.size(); ++i) ASSERT_NEAR(dx[i], dx_ref[i], 3e-3f) << "dx@" << i;
  for (size_t i = 0; i < dw.size(); ++i) ASSERT_NEAR(dw[i], dw_ref[i], 3e-3f) << "dw@" << i;
  for (size_t i = 0; i < db.size(); ++i) ASSERT_NEAR(db[i], db_ref[i], 3e-3f) << "db@" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvBackwardSweep,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 3, 1, 1}, ConvCase{2, 3, 8, 8, 4, 3, 3, 1, 1},
                      ConvCase{1, 2, 8, 8, 3, 3, 3, 2, 1}, ConvCase{2, 3, 11, 11, 4, 5, 5, 1, 2},
                      ConvCase{1, 4, 7, 7, 2, 1, 1, 1, 0}, ConvCase{1, 3, 6, 10, 2, 1, 7, 1, 0},
                      ConvCase{3, 5, 9, 9, 7, 3, 3, 2, 0}));

TEST(Im2col, Col2imIsTheAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> for all x, c — the defining property of
  // the backward-data lowering.
  Conv2dGeom g{3, 6, 7, 3, 3, 2, 1, 1, 2};
  const size_t xn = static_cast<size_t>(g.c) * g.h * g.w;
  const size_t cn = static_cast<size_t>(g.c) * g.kh * g.kw * g.out_h() * g.out_w();
  auto x = random_vec(xn, 31);
  auto c = random_vec(cn, 32);
  std::vector<float> col(cn, 0.0f), back(xn, 0.0f);
  im2col(g, x.data(), col.data());
  col2im(g, c.data(), back.data());
  double lhs = 0, rhs = 0;
  for (size_t i = 0; i < cn; ++i) lhs += static_cast<double>(col[i]) * c[i];
  for (size_t i = 0; i < xn; ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(ConvBackward, DataGradAccumulates) {
  ConvDesc d = make_desc({1, 2, 6, 6, 2, 3, 3, 1, 1});
  auto w = random_vec(d.weight_elems(), 2);
  auto dy = random_vec(d.out_elems(), 3);
  std::vector<float> once(d.in_elems(), 0.0f), twice(d.in_elems(), 0.0f);
  conv_backward_data(d, ConvAlgo::kDirect, w.data(), dy.data(), once.data(), nullptr);
  conv_backward_data(d, ConvAlgo::kDirect, w.data(), dy.data(), twice.data(), nullptr);
  conv_backward_data(d, ConvAlgo::kDirect, w.data(), dy.data(), twice.data(), nullptr);
  for (size_t i = 0; i < once.size(); ++i) ASSERT_NEAR(twice[i], 2.0f * once[i], 1e-4f);
}

// --- direct kernels vs the plain nested loops, bit for bit --------------------

// Reference direct kernels: one output element at a time, every padding tap
// tested inside the innermost loop. They sum in the per-element order that
// conv.hpp documents; the blocked kernels must reproduce them bit for bit.
void reference_direct_forward(const ConvDesc& d, const float* x, const float* w,
                              const float* bias, float* y) {
  const int oh = d.out_h(), ow = d.out_w();
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(0, static_cast<size_t>(d.n) * d.k, [&](size_t nk) {
    int n = static_cast<int>(nk) / d.k;
    int k = static_cast<int>(nk) % d.k;
    const float* xi = x + static_cast<long>(n) * d.c * d.h * d.w;
    const float* wk = w + static_cast<long>(k) * d.c * d.kh * d.kw;
    float* yo = y + (static_cast<long>(n) * d.k + k) * oh * ow;
    float bv = bias ? bias[k] : 0.0f;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        double acc = bv;
        for (int c = 0; c < d.c; ++c) {
          const float* plane = xi + static_cast<long>(c) * d.h * d.w;
          const float* wc = wk + static_cast<long>(c) * d.kh * d.kw;
          for (int ki = 0; ki < d.kh; ++ki) {
            int iy = oy * d.stride_h - d.pad_h + ki;
            if (iy < 0 || iy >= d.h) continue;
            for (int kj = 0; kj < d.kw; ++kj) {
              int ix = ox * d.stride_w - d.pad_w + kj;
              if (ix < 0 || ix >= d.w) continue;
              acc += static_cast<double>(plane[static_cast<long>(iy) * d.w + ix]) *
                     wc[ki * d.kw + kj];
            }
          }
        }
        yo[static_cast<long>(oy) * ow + ox] = static_cast<float>(acc);
      }
    }
  });
}

void reference_direct_backward_data(const ConvDesc& d, const float* w, const float* dy,
                                    float* dx) {
  const int oh = d.out_h(), ow = d.out_w();
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(0, static_cast<size_t>(d.n), [&](size_t ni) {
    int n = static_cast<int>(ni);
    float* dxi = dx + static_cast<long>(n) * d.c * d.h * d.w;
    const float* dyi = dy + static_cast<long>(n) * d.k * oh * ow;
    for (int k = 0; k < d.k; ++k) {
      const float* wk = w + static_cast<long>(k) * d.c * d.kh * d.kw;
      const float* dyk = dyi + static_cast<long>(k) * oh * ow;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float g = dyk[static_cast<long>(oy) * ow + ox];
          if (g == 0.0f) continue;
          for (int c = 0; c < d.c; ++c) {
            float* plane = dxi + static_cast<long>(c) * d.h * d.w;
            const float* wc = wk + static_cast<long>(c) * d.kh * d.kw;
            for (int ki = 0; ki < d.kh; ++ki) {
              int iy = oy * d.stride_h - d.pad_h + ki;
              if (iy < 0 || iy >= d.h) continue;
              for (int kj = 0; kj < d.kw; ++kj) {
                int ix = ox * d.stride_w - d.pad_w + kj;
                if (ix < 0 || ix >= d.w) continue;
                plane[static_cast<long>(iy) * d.w + ix] += g * wc[ki * d.kw + kj];
              }
            }
          }
        }
      }
    }
  });
}

void reference_direct_backward_filter(const ConvDesc& d, const float* x, const float* dy,
                                      float* dw, float* db) {
  const int oh = d.out_h(), ow = d.out_w();
  const size_t wdim = static_cast<size_t>(d.c) * d.kh * d.kw;
  auto& pool = util::ThreadPool::global();
  const int grain = std::max(1, d.k / static_cast<int>(pool.size() * 4));
  const int blocks = (d.k + grain - 1) / grain;
  pool.parallel_for(0, static_cast<size_t>(blocks), [&](size_t bi) {
    const int bk0 = static_cast<int>(bi) * grain;
    const int bk1 = std::min(d.k, bk0 + grain);
    util::PairwiseVecAccumulator acc(wdim);
    std::vector<double> sample(wdim);
    std::vector<float> leaf(wdim);
    std::vector<float> db_leaf(db ? static_cast<size_t>(d.n) : 0);
    for (int k = bk0; k < bk1; ++k) {
      for (int n = 0; n < d.n; ++n) {
        std::fill(sample.begin(), sample.end(), 0.0);
        double dbn = 0.0;
        const float* xi = x + static_cast<long>(n) * d.c * d.h * d.w;
        const float* dyk = dy + (static_cast<long>(n) * d.k + k) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          for (int ox = 0; ox < ow; ++ox) {
            float g = dyk[static_cast<long>(oy) * ow + ox];
            dbn += g;
            if (g == 0.0f) continue;
            for (int c = 0; c < d.c; ++c) {
              const float* plane = xi + static_cast<long>(c) * d.h * d.w;
              double* wc = sample.data() + static_cast<long>(c) * d.kh * d.kw;
              for (int ki = 0; ki < d.kh; ++ki) {
                int iy = oy * d.stride_h - d.pad_h + ki;
                if (iy < 0 || iy >= d.h) continue;
                for (int kj = 0; kj < d.kw; ++kj) {
                  int ix = ox * d.stride_w - d.pad_w + kj;
                  if (ix < 0 || ix >= d.w) continue;
                  wc[ki * d.kw + kj] +=
                      static_cast<double>(g) *
                      static_cast<double>(plane[static_cast<long>(iy) * d.w + ix]);
                }
              }
            }
          }
        }
        for (size_t i = 0; i < wdim; ++i) leaf[i] = static_cast<float>(sample[i]);
        acc.push(leaf.data());
        if (db) db_leaf[static_cast<size_t>(n)] = static_cast<float>(dbn);
      }
      acc.finish(dw + static_cast<long>(k) * wdim);
      if (db) {
        db[k] = util::pairwise_sum<float>(static_cast<uint64_t>(d.n),
                                          [&](uint64_t n) { return db_leaf[n]; });
      }
    }
  });
}

/// Random geometry with a non-empty output. Channel counts straddle the
/// kernels' channel blocks; every few draws force a 1xN or Nx1 kernel, or a
/// kernel taller than the input with no padding (strides above the overhang
/// still leave one output row).
ConvDesc random_geometry(util::Rng& rng, int i) {
  auto pick = [&](int lo, int hi) { return lo + static_cast<int>(rng.next_u64() % (hi - lo + 1)); };
  for (;;) {
    ConvDesc d;
    d.n = rng.next_u64() % 2 ? 3 : 1;
    d.c = pick(1, 11);
    d.k = pick(1, 19);
    d.h = pick(1, 10);
    d.w = pick(1, 10);
    d.kh = pick(1, 6);
    d.kw = pick(1, 6);
    d.stride_h = pick(1, 3);
    d.stride_w = pick(1, 3);
    d.pad_h = pick(0, d.kh);
    d.pad_w = pick(0, d.kw);
    d.has_bias = rng.next_u64() % 2 == 0;
    switch (i % 4) {
      case 1: d.kh = 1; break;
      case 2: d.kw = 1; break;
      case 3:
        d.kh = d.h + pick(1, 2);
        d.pad_h = 0;
        break;
    }
    if (d.out_h() >= 1 && d.out_w() >= 1) return d;
  }
}

/// Value mix of a sweep input. Every mix has a share of exact +0.0 and -0.0.
enum class Mix {
  kUniform,      ///< otherwise uniform in [-1, 1)
  kInfinities,   ///< plus some +-inf: 0 * inf is NaN, so only a kernel that
                 ///< skips the same zero gradients can match bit for bit
  kPowersOfTwo,  ///< otherwise +-2^-30, +-1 or +-2^30: the exact products
                 ///< cancel and absorb each other, so a double sum taken in
                 ///< another order shows in its float result
};

std::vector<float> sweep_values(size_t n, util::Rng& rng, Mix mix) {
  std::vector<float> v(n);
  for (auto& x : v) {
    const uint64_t r = rng.next_u64() % 16;
    if (r < 2) {
      x = r == 0 ? 0.0f : -0.0f;
    } else if (mix == Mix::kInfinities && r == 2) {
      x = rng.next_u64() % 2 ? INFINITY : -INFINITY;
    } else if (mix == Mix::kPowersOfTwo) {
      x = std::ldexp(rng.next_u64() % 2 ? 1.0f : -1.0f, 30 * static_cast<int>(r % 3) - 30);
    } else {
      x = rng.uniform(-1, 1);
    }
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string describe(const ConvDesc& d) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "n%d c%d %dx%d k%d %dx%d s%d,%d p%d,%d%s", d.n, d.c, d.h, d.w,
                d.k, d.kh, d.kw, d.stride_h, d.stride_w, d.pad_h, d.pad_w,
                d.has_bias ? " bias" : "");
  return buf;
}

TEST(ConvDirect, KernelsMatchTheNestedLoopsBitForBit) {
  util::Rng rng(0xC0417);
  for (int i = 0; i < 1500; ++i) {
    const ConvDesc d = random_geometry(rng, i);
    SCOPED_TRACE(describe(d));
    const Mix mix = i % 8 == 7 ? Mix::kInfinities : i % 8 == 6 ? Mix::kPowersOfTwo : Mix::kUniform;
    const auto x = sweep_values(d.in_elems(), rng, mix);
    const auto w = sweep_values(d.weight_elems(), rng, mix);
    const auto b = sweep_values(static_cast<size_t>(d.k), rng, mix);
    const auto dy = sweep_values(d.out_elems(), rng, mix);
    // Backward-data accumulates: start from -0.0 and nonzero values.
    const auto dx0 = sweep_values(d.in_elems(), rng, mix);
    const float* bias = d.has_bias ? b.data() : nullptr;

    std::vector<float> y_ref(d.out_elems()), y(d.out_elems(), -7.0f);
    reference_direct_forward(d, x.data(), w.data(), bias, y_ref.data());
    conv_forward(d, ConvAlgo::kDirect, x.data(), w.data(), b.data(), y.data(), nullptr);
    ASSERT_TRUE(same_bits(y, y_ref)) << "forward";

    std::vector<float> dx_ref = dx0, dx = dx0;
    reference_direct_backward_data(d, w.data(), dy.data(), dx_ref.data());
    conv_backward_data(d, ConvAlgo::kDirect, w.data(), dy.data(), dx.data(), nullptr);
    ASSERT_TRUE(same_bits(dx, dx_ref)) << "backward-data";

    std::vector<float> dw_ref(d.weight_elems()), dw(d.weight_elems(), -7.0f);
    std::vector<float> db_ref(d.k, -7.0f), db(d.k, -7.0f);
    reference_direct_backward_filter(d, x.data(), dy.data(), dw_ref.data(),
                                     d.has_bias ? db_ref.data() : nullptr);
    conv_backward_filter(d, ConvAlgo::kDirect, x.data(), dy.data(), dw.data(), db.data(),
                         nullptr);
    ASSERT_TRUE(same_bits(dw, dw_ref)) << "backward-filter dw";
    ASSERT_TRUE(same_bits(db, db_ref)) << "backward-filter db";
  }
}

TEST(ConvBackward, Im2colFilterGradientMatchesDirectBitForBit) {
  // Same per-sample products in the same spatial order, same batch tree:
  // im2col_backward_filter's only extra terms are the padding taps' and the
  // zero gradients' products, which are +-0 added to a sum that is never
  // -0, so they leave it unchanged.
  util::Rng rng(0xF1175);
  for (int i = 0; i < 500; ++i) {
    const ConvDesc d = random_geometry(rng, i);
    SCOPED_TRACE(describe(d));
    const Mix mix = i % 2 ? Mix::kPowersOfTwo : Mix::kUniform;
    const auto x = sweep_values(d.in_elems(), rng, mix);
    const auto dy = sweep_values(d.out_elems(), rng, mix);
    std::vector<float> ws(
        conv_workspace_bytes(d, ConvAlgo::kIm2colGemm, ConvPass::kBackwardFilter) /
            sizeof(float) +
        1);
    std::vector<float> dw_ref(d.weight_elems()), dw(d.weight_elems(), -7.0f);
    std::vector<float> db_ref(d.k, -7.0f), db(d.k, -7.0f);
    conv_backward_filter(d, ConvAlgo::kDirect, x.data(), dy.data(), dw_ref.data(),
                         db_ref.data(), nullptr);
    conv_backward_filter(d, ConvAlgo::kIm2colGemm, x.data(), dy.data(), dw.data(), db.data(),
                         ws.data());
    ASSERT_TRUE(same_bits(dw, dw_ref)) << "dw";
    ASSERT_TRUE(same_bits(db, db_ref)) << "db";
  }
}

}  // namespace
