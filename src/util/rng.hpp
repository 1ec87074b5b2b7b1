// Deterministic random number generation.
//
// Every stochastic component in the repo (weight init, synthetic data,
// dropout masks) draws from an explicitly seeded Rng so that runs are
// bit-reproducible — a prerequisite for the numerics-invariance property test
// (scheduling must not change training results).
#pragma once

#include <cstdint>
#include <cmath>

namespace sn::util {

/// xoshiro256** — fast, high-quality, and trivially seedable.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(uint64_t seed) {
    // SplitMix64 to expand the seed into the full state.
    uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      si = z ^ (z >> 31);
    }
  }

  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  float next_float() { return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f; }

  /// Uniform integer in [0, n).
  uint64_t next_below(uint64_t n) { return next_u64() % n; }

  /// Uniform in [lo, hi).
  float uniform(float lo, float hi) { return lo + (hi - lo) * next_float(); }

  /// Standard normal via Box–Muller (one value per call; simple and exact).
  float normal() {
    float u1 = next_float();
    float u2 = next_float();
    if (u1 < 1e-12f) u1 = 1e-12f;
    return std::sqrt(-2.0f * std::log(u1)) * std::cos(6.2831853071795864769f * u2);
  }

  float normal(float mean, float stddev) { return mean + stddev * normal(); }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace sn::util
