#include "nn/activation.hpp"

#include <cmath>

#include "util/threadpool.hpp"

namespace sn::nn {

void relu_forward(uint64_t elems, const float* x, float* y) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  });
}

void relu_backward(uint64_t elems, const float* x, const float* dy, float* dx) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i)
      if (x[i] > 0.0f) dx[i] += dy[i];
  });
}

void sigmoid_forward(uint64_t elems, const float* x, float* y) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  });
}

void sigmoid_backward(uint64_t elems, const float* y, const float* dy, float* dx) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dx[i] += dy[i] * y[i] * (1.0f - y[i]);
  });
}

void tanh_forward(uint64_t elems, const float* x, float* y) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) y[i] = std::tanh(x[i]);
  });
}

void tanh_backward(uint64_t elems, const float* y, const float* dy, float* dx) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dx[i] += dy[i] * (1.0f - y[i] * y[i]);
  });
}

}  // namespace sn::nn
