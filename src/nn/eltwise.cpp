#include "nn/eltwise.hpp"

#include <cstring>

#include "util/threadpool.hpp"


namespace sn::nn {

void eltwise_sum_forward(uint64_t elems, const std::vector<const float*>& xs, float* y) {
  if (xs.empty()) {
    std::memset(y, 0, elems * sizeof(float));
    return;
  }
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      float acc = xs[0][i];
      for (size_t b = 1; b < xs.size(); ++b) acc += xs[b][i];
      y[i] = acc;
    }
  });
}

void eltwise_sum_backward(uint64_t elems, const float* dy, float* dx) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dx[i] += dy[i];
  });
}

}  // namespace sn::nn
