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
    // A gated element adds -0.0 instead of skipping, so the loop has no
    // branch and vectorizes; x + -0 is x for every x in round-to-nearest, +0
    // and -0 included. dy is read unconditionally, and the term is named
    // apart from the add (GCC 12 turns `dx[i] += p ? g : -0.0f` back into a
    // conditional store).
    for (size_t i = lo; i < hi; ++i) {
      const float g = dy[i];
      const float term = x[i] > 0.0f ? g : -0.0f;
      dx[i] = dx[i] + term;
    }
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
