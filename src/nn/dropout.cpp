#include "nn/dropout.hpp"

#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace sn::nn {

void dropout_forward(uint64_t elems, float ratio, uint64_t seed, const float* x, float* y,
                     float* mask) {
  const float scale = ratio < 1.0f ? 1.0f / (1.0f - ratio) : 0.0f;
  // Chunked so the RNG stream per chunk is independent of thread scheduling:
  // chunk i always seeds with (seed, i), keeping masks bit-deterministic
  // however the chunks are split across lanes.
  constexpr uint64_t kChunk = 4096;
  uint64_t chunks = (elems + kChunk - 1) / kChunk;
  util::ThreadPool::global().parallel_for(0, chunks, [&](size_t c_lo, size_t c_hi) {
    for (size_t ci = c_lo; ci < c_hi; ++ci) {
      util::Rng rng(seed ^ (0x517CC1B727220A95ull * (ci + 1)));
      uint64_t lo = ci * kChunk;
      uint64_t hi = lo + kChunk < elems ? lo + kChunk : elems;
      for (uint64_t i = lo; i < hi; ++i) {
        float m = rng.next_float() < ratio ? 0.0f : scale;
        mask[i] = m;
        y[i] = x[i] * m;
      }
    }
  });
}

void dropout_backward(uint64_t elems, const float* mask, const float* dy, float* dx) {
  util::ThreadPool::global().parallel_for(0, elems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dx[i] += dy[i] * mask[i];
  });
}

}  // namespace sn::nn
