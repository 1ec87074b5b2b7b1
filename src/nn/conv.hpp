// 2-D convolution with a cuDNN-style algorithm menu.
//
// The paper's dynamic workspace allocator (§3.5) depends on convolutions
// exposing multiple algorithms with different (workspace, speed) points:
//
//   kDirect      — no workspace, slowest
//   kIm2colGemm  — column-buffer workspace, fast (cuDNN's IMPLICIT_GEMM kin)
//   kWinograd    — 3x3/stride-1 only, moderate workspace, fastest for 3x3
//   kFftTiled    — stride-1 only, largest workspace, fastest for big kernels
//
// Numerics contract. Every algorithm computes the same convolution and they
// agree within float rounding (tests/test_conv.cpp checks each against
// kDirect within a tolerance), so the runtime may pick any feasible one.
// They are NOT bitwise interchangeable: each sums in its own order and
// precision. kWinograd runs F(2x2,3x3) tiles and kFftTiled a tiled FFT
// (fft_conv_forward_image) on the forward pass; the backward passes of every
// algorithm but kDirect run the im2col path. Direct and im2col already
// differ in the low bits of the forward and backward-data outputs for most
// geometries. Runs that must be bit-reproducible (the parity suites,
// perfbench) therefore pin kDirect with allow_workspace = false. kFftTiled's
// workspace demand and speed are modeled after cuDNN's FFT tiling.
//
// kDirect's per-element summation order (pinned bit for bit by test_conv):
//   forward          y = float(bias + sum of x * w over the in-image taps in
//                    (c, ki, kj) order), the sum in double starting from the
//                    bias (0 without one);
//   backward-data    dx += g * w in float, one term at a time, in (k, oy, ox)
//                    order over the outputs that read the element, skipping
//                    g == 0 (either sign);
//   backward-filter  per (k, sample): the double sum of g * x over (oy, ox) in
//                    order, skipping g == 0, cast to float; samples then
//                    reduce as a pairwise tree (util/pairwise.hpp). db per
//                    sample is the double sum of every g in (oy, ox) order,
//                    cast to float, reduced by the same tree.
// im2col's backward-filter matches direct's bit for bit on finite inputs: its
// extra terms (the padding taps and the zero gradients) are signed zeros
// added to a double sum that is never -0.
#pragma once

#include <cstdint>
#include <string>

#include "nn/im2col.hpp"

namespace sn::nn {

struct ConvDesc {
  int n = 1;                        ///< batch
  int c = 1, h = 1, w = 1;          ///< input NCHW
  int k = 1;                        ///< output channels
  int kh = 1, kw = 1;
  int stride_h = 1, stride_w = 1;
  int pad_h = 0, pad_w = 0;
  bool has_bias = true;

  Conv2dGeom geom() const {
    return Conv2dGeom{c, h, w, kh, kw, stride_h, stride_w, pad_h, pad_w};
  }
  int out_h() const { return geom().out_h(); }
  int out_w() const { return geom().out_w(); }
  uint64_t weight_elems() const {
    return static_cast<uint64_t>(k) * c * kh * kw;
  }
  uint64_t out_elems() const {
    return static_cast<uint64_t>(n) * k * out_h() * out_w();
  }
  uint64_t in_elems() const { return static_cast<uint64_t>(n) * c * h * w; }
};

enum class ConvAlgo { kDirect, kIm2colGemm, kWinograd, kFftTiled };
enum class ConvPass { kForward, kBackwardData, kBackwardFilter };

constexpr int kNumConvAlgos = 4;
const char* algo_name(ConvAlgo a);

/// Whether `algo` can execute this geometry at all (mirrors cuDNN's support
/// envelope: Winograd = 3x3/s1, FFT = stride 1 and kernel <= input).
bool conv_algo_supported(const ConvDesc& d, ConvAlgo algo);

/// Scratch bytes `algo` needs for `pass` (0 for kDirect). This is the number
/// the dynamic workspace allocator checks against per-step free memory.
uint64_t conv_workspace_bytes(const ConvDesc& d, ConvAlgo algo, ConvPass pass);

/// Fraction of device peak FLOP/s the algorithm sustains on this geometry;
/// feeds the simulated cost model. Higher = faster.
double conv_algo_efficiency(const ConvDesc& d, ConvAlgo algo, ConvPass pass);

/// MAC-based flop count for one pass (2 * N*K*C*KH*KW*OH*OW).
double conv_flops(const ConvDesc& d, ConvPass pass);

// --- real execution -------------------------------------------------------

/// y (N,K,OH,OW) = conv(x (N,C,H,W), w (K,C,KH,KW)) + bias. `ws` must hold
/// conv_workspace_bytes(d, algo, kForward) bytes (may be null for kDirect).
void conv_forward(const ConvDesc& d, ConvAlgo algo, const float* x, const float* w,
                  const float* bias, float* y, float* ws);

/// dx (N,C,H,W) from dy (N,K,OH,OW) and w. ACCUMULATES into dx (the caller
/// zeroes the gradient once per iteration; fan-out consumers then sum).
void conv_backward_data(const ConvDesc& d, ConvAlgo algo, const float* w, const float* dy,
                        float* dx, float* ws);

/// dw (K,C,KH,KW) and db (K) from x and dy (accumulated across the batch;
/// dw/db are overwritten, not accumulated, matching the trainer's contract).
void conv_backward_filter(const ConvDesc& d, ConvAlgo algo, const float* x, const float* dy,
                          float* dw, float* db, float* ws);

}  // namespace sn::nn
