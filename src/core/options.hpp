// Runtime configuration and the framework-policy presets.
//
// The paper compares SuperNeurons against Caffe, Torch, MXNet and TensorFlow.
// Those frameworks' memory behaviour is reproduced here as *policies over the
// same substrate* (see DESIGN.md, Substitutions): each preset toggles the
// runtime features that characterize the framework's published memory
// strategy, so cross-framework deltas isolate exactly the variable the paper
// studies (the scheduling policy), not kernel quality.
#pragma once

#include <cstdint>
#include <string>

#include "sim/device_spec.hpp"

namespace sn::sim {
class Cluster;
}

namespace sn::core {

enum class RecomputeMode {
  kNone,
  kSpeedCentric,   ///< replay each segment once, keep results (MXNet, §3.4)
  kMemoryCentric,  ///< replay per backward layer, re-drop intermediates
  kCostAware,      ///< per-segment choice bounded by l_peak (the paper's)
};

const char* recompute_mode_name(RecomputeMode m);

/// Sentinel for RuntimeOptions::prefetch_lookahead: "the user did not set
/// it" — the MemoryPlan substitutes the per-net table default.
inline constexpr int kPrefetchLookaheadAuto = -1;

struct RuntimeOptions {
  // --- memory techniques (paper §3) ---------------------------------------
  bool use_liveness = true;       ///< free tensors at their last use (§3.2)
  bool use_pool_allocator = true; ///< pre-allocated heap vs cudaMalloc (§3.2.1)
  bool offload = true;            ///< UTP offload/prefetch of CONV outputs (§3.3)
  bool tensor_cache = true;       ///< LRU cache: transfer only on pressure (§3.3.2)
  RecomputeMode recompute = RecomputeMode::kCostAware;  ///< §3.4

  // --- transfer behaviour --------------------------------------------------
  bool pinned_host = true;       ///< pinned staging (TF-like policies lose 50%)
  bool async_transfers = true;   ///< overlap DMA with compute
  /// Checkpoint spans staged ahead of backward (§3.3.1; the paper prefetches
  /// exactly 1; 0 disables prefetching, and negatives other than
  /// kPrefetchLookaheadAuto clamp to 0). Left at
  /// kPrefetchLookaheadAuto, the MemoryPlan resolves it once to the per-net
  /// default core::default_prefetch_lookahead() (core/memory_plan.hpp) pins
  /// from bench_prefetch_lookahead (VGG16/19 -> 1, InceptionV4 /
  /// ResNet50/101 -> 2).
  int prefetch_lookahead = kPrefetchLookaheadAuto;

  // --- speed techniques ----------------------------------------------------
  bool dynamic_workspace = true; ///< per-step fastest feasible conv algo (§3.5)
  bool allow_workspace = true;   ///< false = force the zero-workspace algorithm
                                 ///< (the Fig. 2 "without conv buff" series)

  // --- modelling -----------------------------------------------------------
  bool inplace_act = false;      ///< Torch-style in-place ReLU (sim-only alias)
  bool reuse_grad_buffers = false;  ///< Caffe/Torch-style reuse of forward
                                    ///< tensors for backward data (§2.2:
                                    ///< "saves up to 50%"); sim-only alias
  bool real = false;             ///< real numerics (backed pools, kernels run)
  uint64_t device_capacity = 12ull << 30;
  uint64_t host_capacity = 256ull << 30;
  sim::DeviceSpec spec = sim::k40c_spec();
  uint64_t seed = 0x5EEDBA5Eull;

  // --- multi-device (dist/) ------------------------------------------------
  /// When set, the runtime drives `cluster->machine(device_id)` instead of
  /// owning a machine, so several runtimes share one virtual-time fabric and
  /// P2P links. `spec` must match the cluster's device spec (the cost model
  /// reads it). The cluster must outlive the runtime.
  sim::Cluster* cluster = nullptr;
  int device_id = 0;
  /// 2D grid coordinates of this runtime on the cluster's (stage, replica)
  /// device grid (sim::GridView); stamped into every StepTelemetry entry so
  /// traces group by pipeline stage and replica lane. (0, 0) off-grid.
  int stage = 0;
  int replica = 0;
  /// Global batch the loss is averaged over (0 = the net's own batch).
  /// Data-parallel replicas set this so per-sample gradients are independent
  /// of the sharding.
  int loss_batch = 0;
};

/// Framework presets used by the end-to-end benches (Tables 4/5, Figs 13/14).
enum class PolicyPreset {
  kBaselineNaive,  ///< every tensor allocated, nothing freed (paper baseline)
  kCaffeLike,      ///< all tensors resident; native allocator; static algo
  kTorchLike,      ///< Caffe + in-place activations
  kMxnetLike,      ///< liveness + uniform speed-centric recompute, no offload
  kTfLike,         ///< liveness + swap, but pageable staging and no cache
  kSuperNeurons,   ///< everything (the paper's runtime)
};

const char* policy_name(PolicyPreset p);

RuntimeOptions make_policy(PolicyPreset preset, sim::DeviceSpec spec = sim::k40c_spec());

/// Error thrown when an allocation cannot be satisfied even after eviction /
/// recomputation — the "GPU out-of-memory" the going-wider/deeper benches
/// probe for.
struct OomError {
  uint64_t requested = 0;
  uint64_t largest_free = 0;
  std::string what;
};

}  // namespace sn::core
