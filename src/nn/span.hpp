// Index ranges for the padding bounds of the direct convolution and pooling
// kernels, solved once per position or tap instead of once per term.
#pragma once

#include <algorithm>

namespace sn::nn {

/// Half-open index range.
struct Span {
  int lo, hi;
};

/// The indices i in [0, count) with lo <= i * stride < hi.
inline Span stride_range(int lo, int hi, int stride, int count) {
  const int first = lo <= 0 ? 0 : (lo + stride - 1) / stride;
  const int end = hi <= 0 ? 0 : std::min(count, (hi + stride - 1) / stride);
  return {first, std::max(first, end)};
}

}  // namespace sn::nn
