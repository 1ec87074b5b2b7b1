// Forward-semantics tests for the non-conv kernels: pooling (incl. argmax),
// ReLU, LRN, BN statistics, dropout determinism, softmax, eltwise, concat;
// the elementwise kernels are also checked bit for bit against scalar loops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/concat.hpp"
#include "nn/dropout.hpp"
#include "nn/eltwise.hpp"
#include "nn/fc.hpp"
#include "nn/lrn.hpp"
#include "nn/pool.hpp"
#include "nn/softmax.hpp"
#include "util/rng.hpp"

namespace {

using namespace sn::nn;

TEST(Pool, MaxPoolPicksMaxAndRecordsArgmax) {
  PoolDesc d;
  d.n = 1;
  d.c = 1;
  d.h = 4;
  d.w = 4;
  d.kh = d.kw = 2;
  d.stride_h = d.stride_w = 2;
  std::vector<float> x{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  std::vector<float> y(4);
  std::vector<int32_t> am(4);
  pool_forward(d, x.data(), y.data(), am.data());
  EXPECT_EQ(y, (std::vector<float>{6, 8, 14, 16}));
  EXPECT_EQ(am, (std::vector<int32_t>{5, 7, 13, 15}));
}

TEST(Pool, MaxPoolBackwardScattersToArgmax) {
  PoolDesc d;
  d.n = 1;
  d.c = 1;
  d.h = 4;
  d.w = 4;
  d.kh = d.kw = 2;
  d.stride_h = d.stride_w = 2;
  std::vector<int32_t> am{5, 7, 13, 15};
  std::vector<float> dy{1, 2, 3, 4};
  std::vector<float> dx(16, 0.0f);
  pool_backward(d, dy.data(), am.data(), dx.data());
  EXPECT_FLOAT_EQ(dx[5], 1);
  EXPECT_FLOAT_EQ(dx[7], 2);
  EXPECT_FLOAT_EQ(dx[13], 3);
  EXPECT_FLOAT_EQ(dx[15], 4);
  EXPECT_FLOAT_EQ(std::accumulate(dx.begin(), dx.end(), 0.0f), 10.0f);
}

TEST(Pool, AvgPoolAverages) {
  PoolDesc d;
  d.n = 1;
  d.c = 1;
  d.h = 2;
  d.w = 2;
  d.kh = d.kw = 2;
  d.stride_h = d.stride_w = 2;
  d.max_pool = false;
  std::vector<float> x{1, 2, 3, 4}, y(1);
  pool_forward(d, x.data(), y.data(), nullptr);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Pool, PaddedWindowsIgnorePadding) {
  PoolDesc d;
  d.n = 1;
  d.c = 1;
  d.h = 3;
  d.w = 3;
  d.kh = d.kw = 3;
  d.stride_h = d.stride_w = 2;
  d.pad_h = d.pad_w = 1;
  d.max_pool = false;
  std::vector<float> x(9, 6.0f), y(4);
  pool_forward(d, x.data(), y.data(), nullptr);
  // Average pooling divides by the count of *valid* taps, so constant input
  // stays constant even on padded windows.
  for (float v : y) EXPECT_FLOAT_EQ(v, 6.0f);
}

TEST(Relu, ForwardClampsNegatives) {
  std::vector<float> x{-1, 0, 2}, y(3);
  relu_forward(3, x.data(), y.data());
  EXPECT_EQ(y, (std::vector<float>{0, 0, 2}));
}

TEST(Relu, BackwardGatesOnInput) {
  std::vector<float> x{-1, 0, 2}, dy{5, 6, 7}, dx(3, 0.0f);
  relu_backward(3, x.data(), dy.data(), dx.data());
  EXPECT_EQ(dx, (std::vector<float>{0, 0, 7}));
}

TEST(Sigmoid, SaturatesAndCenters) {
  std::vector<float> x{-100, 0, 100}, y(3);
  sigmoid_forward(3, x.data(), y.data());
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-6f);
}

TEST(Tanh, OddAndBounded) {
  std::vector<float> x{-1.5f, 0, 1.5f}, y(3);
  tanh_forward(3, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[0], -y[2]);
  EXPECT_LT(std::abs(y[2]), 1.0f);
}

TEST(Lrn, IdentityWhenAlphaZero) {
  LrnDesc d;
  d.n = 1;
  d.c = 4;
  d.h = 2;
  d.w = 2;
  d.alpha = 0.0f;
  d.k = 1.0f;  // scale == 1 -> y == x
  std::vector<float> x(16), y(16), s(16);
  sn::util::Rng rng(5);
  for (auto& v : x) v = rng.uniform(-1, 1);
  lrn_forward(d, x.data(), y.data(), s.data());
  for (int i = 0; i < 16; ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Lrn, ScaleMatchesFormula) {
  LrnDesc d;
  d.n = 1;
  d.c = 3;
  d.h = 1;
  d.w = 1;
  d.size = 3;
  d.alpha = 0.3f;
  d.beta = 0.75f;
  d.k = 2.0f;
  std::vector<float> x{1, 2, 3}, y(3), s(3);
  lrn_forward(d, x.data(), y.data(), s.data());
  // Channel 1 window = {0,1,2}: scale = 2 + 0.1*(1+4+9)
  EXPECT_NEAR(s[1], 2.0f + 0.1f * 14.0f, 1e-5f);
  EXPECT_NEAR(y[1], 2.0f * std::pow(s[1], -0.75f), 1e-5f);
}

TEST(BatchNorm, NormalizesPerChannel) {
  BnDesc d;
  d.n = 2;
  d.c = 2;
  d.h = 2;
  d.w = 2;
  std::vector<float> x(16);
  sn::util::Rng rng(9);
  for (auto& v : x) v = rng.uniform(-3, 3);
  std::vector<float> gamma{1, 1}, beta{0, 0}, y(16), mean(2), invstd(2);
  bn_forward(d, x.data(), gamma.data(), beta.data(), y.data(), mean.data(), invstd.data());
  // Per-channel output mean ~ 0, variance ~ 1.
  for (int c = 0; c < 2; ++c) {
    double sum = 0, sq = 0;
    for (int n = 0; n < 2; ++n)
      for (int s = 0; s < 4; ++s) {
        float v = y[(n * 2 + c) * 4 + s];
        sum += v;
        sq += v * v;
      }
    EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 8.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GammaBetaAffine) {
  BnDesc d;
  d.n = 1;
  d.c = 1;
  d.h = 1;
  d.w = 4;
  std::vector<float> x{1, 2, 3, 4}, gamma{2}, beta{10}, y(4), mean(1), invstd(1);
  bn_forward(d, x.data(), gamma.data(), beta.data(), y.data(), mean.data(), invstd.data());
  double m = 0;
  for (float v : y) m += v;
  EXPECT_NEAR(m / 4.0, 10.0, 1e-4);  // beta shifts the mean
}

TEST(Dropout, DeterministicForSameSeed) {
  std::vector<float> x(1000, 1.0f), y1(1000), y2(1000), m1(1000), m2(1000);
  dropout_forward(1000, 0.5f, 1234, x.data(), y1.data(), m1.data());
  dropout_forward(1000, 0.5f, 1234, x.data(), y2.data(), m2.data());
  EXPECT_EQ(m1, m2);
  dropout_forward(1000, 0.5f, 999, x.data(), y2.data(), m2.data());
  EXPECT_NE(m1, m2);
}

TEST(Dropout, RatioAndScale) {
  const uint64_t n = 100000;
  std::vector<float> x(n, 1.0f), y(n), m(n);
  dropout_forward(n, 0.3f, 77, x.data(), y.data(), m.data());
  size_t zeros = 0;
  for (float v : m) {
    if (v == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(v, 1.0f / 0.7f, 1e-5f);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / n, 0.3, 0.01);
}

TEST(Softmax, RowsSumToOne) {
  std::vector<float> x{1, 2, 3, 100, 100, 100}, p(6);
  softmax_forward(2, 3, x.data(), p.data());
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-5f);
  EXPECT_NEAR(p[3], 1.0f / 3.0f, 1e-5f);  // large-but-equal logits: stable
}

TEST(Softmax, LossOfPerfectPrediction) {
  std::vector<float> p{1.0f, 0.0f, 0.0f};
  std::vector<int32_t> labels{0};
  EXPECT_NEAR(nll_loss(1, 3, p.data(), labels.data()), 0.0, 1e-5);
}

TEST(Softmax, BackwardIsPMinusOnehot) {
  std::vector<float> p{0.2f, 0.3f, 0.5f};
  std::vector<int32_t> labels{2};
  std::vector<float> dx(3, 0.0f);
  softmax_nll_backward(1, 3, p.data(), labels.data(), dx.data());
  EXPECT_NEAR(dx[0], 0.2f, 1e-6f);
  EXPECT_NEAR(dx[1], 0.3f, 1e-6f);
  EXPECT_NEAR(dx[2], -0.5f, 1e-6f);
}

TEST(Eltwise, SumsBranches) {
  std::vector<float> a{1, 2}, b{10, 20}, c{100, 200}, y(2);
  eltwise_sum_forward(2, {a.data(), b.data(), c.data()}, y.data());
  EXPECT_EQ(y, (std::vector<float>{111, 222}));
}

TEST(Eltwise, BackwardAccumulates) {
  std::vector<float> dy{1, 2}, dx{10, 10};
  eltwise_sum_backward(2, dy.data(), dx.data());
  EXPECT_EQ(dx, (std::vector<float>{11, 12}));
}

TEST(Concat, RoundTripsChannels) {
  ConcatDesc d;
  d.n = 2;
  d.h = 1;
  d.w = 2;
  d.channels = {1, 2};
  // x0: (2,1,1,2), x1: (2,2,1,2)
  std::vector<float> x0{1, 2, 3, 4}, x1{10, 11, 12, 13, 14, 15, 16, 17};
  std::vector<float> y(12);
  concat_forward(d, {x0.data(), x1.data()}, y.data());
  // n=0: [1,2 | 10,11,12,13], n=1: [3,4 | 14,15,16,17]
  EXPECT_EQ(y, (std::vector<float>{1, 2, 10, 11, 12, 13, 3, 4, 14, 15, 16, 17}));

  std::vector<float> g0(4, 0.0f), g1(8, 0.0f);
  concat_backward(d, y.data(), 0, g0.data());
  concat_backward(d, y.data(), 1, g1.data());
  EXPECT_EQ(g0, x0);
  EXPECT_EQ(g1, x1);
}

TEST(Fc, ForwardMatchesManual) {
  FcDesc f{2, 3, 2, true};
  std::vector<float> x{1, 2, 3, 4, 5, 6};        // 2x3
  std::vector<float> w{1, 0, 0, 0, 1, 0};        // 2x3 (K x D)
  std::vector<float> b{0.5f, -0.5f};
  std::vector<float> y(4);
  fc_forward(f, x.data(), w.data(), b.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 1.5f);   // row0 . w0 + b0
  EXPECT_FLOAT_EQ(y[1], 1.5f);   // row0 . w1 + b1
  EXPECT_FLOAT_EQ(y[2], 4.5f);
  EXPECT_FLOAT_EQ(y[3], 4.5f);
}

// --- elementwise kernels vs plain scalar loops, bit for bit -------------------
//
// The sizes straddle dropout's 4096-element RNG chunk and split unevenly
// across the kernel pool's lanes, so range boundaries fall everywhere; the
// inputs mix ordinary values with -0.0, NaN, +-inf and denormals.

const std::vector<uint64_t> kElemSizes{1, 3, 4095, 4096, 4097, 100003};

std::vector<float> mixed_floats(uint64_t n, uint64_t seed) {
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            -3e-39f,
                            std::numeric_limits<float>::max()};
  sn::util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& f : v) {
    f = rng.next_below(5) == 0 ? specials[rng.next_below(std::size(specials))]
                               : rng.normal(0.0f, 4.0f);
  }
  return v;
}

/// Bit-for-bit equality (memcmp per element), except that any two NaNs
/// match: when both operands of an add are NaN, which one the result carries
/// follows the operand order the compiler emitted, and IEEE 754 leaves that
/// open (a Debug and a Release build differ there).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

TEST(Elementwise, ForwardKernelsMatchScalarLoopsBitForBit) {
  for (uint64_t n : kElemSizes) {
    SCOPED_TRACE("elems " + std::to_string(n));
    const auto x = mixed_floats(n, n);
    std::vector<float> got(n), want(n);

    relu_forward(n, x.data(), got.data());
    for (uint64_t i = 0; i < n; ++i) want[i] = x[i] > 0.0f ? x[i] : 0.0f;
    EXPECT_TRUE(same_bits(got, want)) << "relu_forward";

    sigmoid_forward(n, x.data(), got.data());
    for (uint64_t i = 0; i < n; ++i) want[i] = 1.0f / (1.0f + std::exp(-x[i]));
    EXPECT_TRUE(same_bits(got, want)) << "sigmoid_forward";

    tanh_forward(n, x.data(), got.data());
    for (uint64_t i = 0; i < n; ++i) want[i] = std::tanh(x[i]);
    EXPECT_TRUE(same_bits(got, want)) << "tanh_forward";

    const auto x1 = mixed_floats(n, n + 1), x2 = mixed_floats(n, n + 2);
    const std::vector<std::vector<const float*>> branch_sets{
        {x.data()}, {x.data(), x1.data()}, {x.data(), x1.data(), x2.data()}};
    for (const auto& xs : branch_sets) {
      eltwise_sum_forward(n, xs, got.data());
      for (uint64_t i = 0; i < n; ++i) {
        float acc = xs[0][i];
        for (size_t b = 1; b < xs.size(); ++b) acc += xs[b][i];
        want[i] = acc;
      }
      EXPECT_TRUE(same_bits(got, want)) << "eltwise_sum_forward, " << xs.size() << " branches";
    }
  }
}

TEST(Elementwise, BackwardKernelsMatchScalarLoopsBitForBit) {
  for (uint64_t n : kElemSizes) {
    SCOPED_TRACE("elems " + std::to_string(n));
    const auto x = mixed_floats(n, 3 * n), dy = mixed_floats(n, 3 * n + 1);
    const auto dx0 = mixed_floats(n, 3 * n + 2);

    auto check = [&](const char* name, auto kernel, auto scalar) {
      std::vector<float> got = dx0, want = dx0;
      kernel(got.data());
      for (uint64_t i = 0; i < n; ++i) scalar(i, want[i]);
      EXPECT_TRUE(same_bits(got, want)) << name;
    };
    check(
        "relu_backward", [&](float* dx) { relu_backward(n, x.data(), dy.data(), dx); },
        [&](uint64_t i, float& d) {
          if (x[i] > 0.0f) d += dy[i];
        });
    check(
        "sigmoid_backward", [&](float* dx) { sigmoid_backward(n, x.data(), dy.data(), dx); },
        [&](uint64_t i, float& d) { d += dy[i] * x[i] * (1.0f - x[i]); });
    check(
        "tanh_backward", [&](float* dx) { tanh_backward(n, x.data(), dy.data(), dx); },
        [&](uint64_t i, float& d) { d += dy[i] * (1.0f - x[i] * x[i]); });
    check(
        "eltwise_sum_backward", [&](float* dx) { eltwise_sum_backward(n, dy.data(), dx); },
        [&](uint64_t i, float& d) { d += dy[i]; });
    check(
        "dropout_backward", [&](float* dx) { dropout_backward(n, x.data(), dy.data(), dx); },
        [&](uint64_t i, float& d) { d += dy[i] * x[i]; });
  }
}

TEST(Elementwise, DropoutMaskDependsOnlyOnSeedAndIndex) {
  // Element i's mask comes from its 4096-element chunk's own RNG stream, so
  // a shorter call yields a prefix of a longer one, however the pool splits.
  const uint64_t longest = kElemSizes.back();
  const auto x = mixed_floats(longest, 11);
  std::vector<float> y_all(longest), m_all(longest);
  dropout_forward(longest, 0.4f, 2024, x.data(), y_all.data(), m_all.data());
  for (uint64_t n : kElemSizes) {
    SCOPED_TRACE("elems " + std::to_string(n));
    std::vector<float> y(n), m(n);
    dropout_forward(n, 0.4f, 2024, x.data(), y.data(), m.data());
    EXPECT_EQ(std::memcmp(m.data(), m_all.data(), n * sizeof(float)), 0);
    std::vector<float> want(n);
    for (uint64_t i = 0; i < n; ++i) want[i] = x[i] * m[i];
    EXPECT_TRUE(same_bits(y, want));
  }
}

}  // namespace
