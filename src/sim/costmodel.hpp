// Analytic cost model: converts op descriptions (FLOPs, bytes touched,
// efficiency) into virtual seconds on a DeviceSpec.
//
// The model follows the standard roofline form: an op is either
// throughput-bound (flops / (peak * efficiency)) or bandwidth-bound
// (bytes / effective_bw), whichever is larger, plus a fixed launch overhead.
// Compute-heavy layers (CONV, FC) are throughput-bound; POOL/ACT/LRN/BN are
// bandwidth-bound — exactly the asymmetry Fig. 8 of the paper documents and
// that cost-aware recomputation exploits.
#pragma once

#include <cstdint>

#include "sim/device_spec.hpp"

namespace sn::sim {

class CostModel {
 public:
  explicit CostModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Roofline time for one kernel.
  /// `efficiency` is the fraction of peak FLOP/s the op sustains.
  double compute_time(double flops, double bytes, double efficiency) const {
    double t_flops = efficiency > 0.0 ? flops / (spec_.peak_flops * efficiency) : 0.0;
    double t_mem = static_cast<double>(bytes) / (spec_.mem_bw * kMemEfficiency);
    return spec_.launch_overhead_s + (t_flops > t_mem ? t_flops : t_mem);
  }

  /// Time for a purely bandwidth-bound kernel (elementwise / normalization).
  double bandwidth_time(uint64_t bytes) const { return compute_time(0.0, static_cast<double>(bytes), 1.0); }

  /// Fraction of peak DRAM bandwidth that streaming kernels sustain.
  static constexpr double kMemEfficiency = 0.75;

 private:
  DeviceSpec spec_;
};

}  // namespace sn::sim
