#include "nn/fc.hpp"

#include <vector>

#include "nn/gemm.hpp"
#include "util/pairwise.hpp"
#include "util/threadpool.hpp"

namespace sn::nn {

void fc_forward(const FcDesc& f, const float* x, const float* w, const float* bias, float* y) {
  // y = x * Wᵀ
  sgemm(false, true, f.n, f.k, f.d, 1.0f, x, f.d, w, f.d, 0.0f, y, f.k);
  if (f.has_bias && bias) {
    for (int n = 0; n < f.n; ++n) {
      float* row = y + static_cast<long>(n) * f.k;
      for (int k = 0; k < f.k; ++k) row[k] += bias[k];
    }
  }
}

void fc_backward_data(const FcDesc& f, const float* w, const float* dy, float* dx) {
  // dx += dy * W (beta = 1: accumulate, caller zeroes once per iteration)
  sgemm(false, false, f.n, f.d, f.k, 1.0f, dy, f.k, w, f.d, 1.0f, dx, f.d);
}

void fc_backward_filter(const FcDesc& f, const float* x, const float* dy, float* dw, float* db) {
  // dW = dyᵀ * x, reduced over the batch with a pairwise tree per output row
  // (see util/pairwise.hpp): the per-sample leaf is the outer-product row
  // dy[n][k] * x[n][:], so an equal power-of-two batch shard contributes
  // exactly one subtree and data-parallel all-reduced gradients match the
  // single-device ones bit for bit.
  // Each lane allocates its accumulator/leaf scratch once for its whole row
  // range, not once per output row (finish() resets the tree).
  util::ThreadPool::global().parallel_for(0, static_cast<size_t>(f.k), [&](size_t lo, size_t hi) {
    util::PairwiseVecAccumulator acc(static_cast<size_t>(f.d));
    std::vector<float> leaf(static_cast<size_t>(f.d));
    for (int k = static_cast<int>(lo); k < static_cast<int>(hi); ++k) {
      for (int n = 0; n < f.n; ++n) {
        const float g = dy[static_cast<long>(n) * f.k + k];
        const float* xn = x + static_cast<long>(n) * f.d;
        for (int dd = 0; dd < f.d; ++dd) leaf[static_cast<size_t>(dd)] = g * xn[dd];
        acc.push(leaf.data());
      }
      acc.finish(dw + static_cast<long>(k) * f.d);
      if (db) {
        db[k] = util::pairwise_sum<float>(static_cast<uint64_t>(f.n), [&](uint64_t n) {
          return dy[static_cast<long>(n) * f.k + k];
        });
      }
    }
  });
}

}  // namespace sn::nn
