// NetPartitioner: cut a Net's route into contiguous pipeline stages.
//
// Pipeline parallelism (dist::HybridParallelTrainer's stage rows) places
// each stage on its own cluster device and streams the boundary activation forward (and
// its gradient backward) over the P2P fabric. A cut position is *valid* only
// when exactly ONE layer's output crosses it — the stage boundary must be a
// single tensor, or the downstream stage would need several synthetic
// inputs. Linear nets (AlexNet, VGG) can cut anywhere; fan/join nets
// (ResNet, Inception, DenseNet) can cut only at articulation points between
// blocks, which this class discovers from the graph.
//
// Stage balance uses the same analytic cost model the simulator runs on:
// a stage's cost is its layers' modeled forward+backward seconds plus the
// link seconds of the boundary activation it ships downstream, plus its
// forward seconds once more when the column schedule re-materializes that
// stage (every stage but the last, when the microbatch count M > 1).
// partition() minimizes the maximum stage cost over all valid cut
// combinations (the pipeline's steady-state throughput is set by its
// slowest stage); partition_at() takes explicit boundaries so tests (and
// users who know their net) can pin exact cuts.
//
// Memory awareness: when a device capacity is given, each candidate stage is
// charged its working-set FLOOR under full offload — the stage's persistent
// bytes (params + param grads stay device-resident for SGD) plus the largest
// single layer's non-param tensor set (the paper's l_i: everything cuDNN
// needs resident to run one layer; offload can spill everything else, but
// never below one layer's own operands). The min-max DP skips cuts whose
// stage cannot fit even at that floor, so partition() targets capacity as
// well as throughput; partition_at() rejects explicitly-pinned infeasible
// cuts with std::invalid_argument.
//
// extract_stage() materializes one stage as a standalone Net: stages after
// the first replace the boundary producer with a synthetic DataLayer whose
// output carries a gradient (DataLayer::set_input_grad), so the stage's
// backward accumulates the gradient w.r.t. its input for streaming upstream.
// Layer (and therefore parameter-tensor) names are preserved, which is what
// lets per-tensor-seeded weight initialization reproduce the full net's
// parameters stage-locally.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/net.hpp"
#include "sim/costmodel.hpp"
#include "sim/device_spec.hpp"

namespace sn::graph {

/// Observed-cost override for the stage balance: fill `*fwd_seconds` /
/// `*bwd_seconds` with measured per-execution kernel seconds for the layer
/// named `name` and return true, or return false (outputs untouched) to fall
/// back to the analytic roofline for that layer. obs::CostProfile's
/// layer_seconds has exactly this shape — wrap it in a lambda to keep the
/// graph layer free of an obs dependency.
using LayerCostFn =
    std::function<bool(const std::string& name, double* fwd_seconds, double* bwd_seconds)>;

struct StageSpec {
  int begin = 0;                 ///< first route index of the stage
  int end = 0;                   ///< one past the last route index
  double compute_seconds = 0.0;  ///< modeled fwd+bwd seconds of the stage's layers
  uint64_t boundary_bytes = 0;   ///< activation bytes shipped downstream (0 for the last stage)
  int boundary_layer = -1;       ///< route index producing the outgoing boundary (-1 for last)
  uint64_t min_bytes = 0;        ///< peak working-set floor under full offload
};

struct PartitionPlan {
  std::vector<StageSpec> stages;
  std::vector<int> cuts;            ///< route positions; stage s is [cuts[s-1], cuts[s])
  double max_stage_seconds = 0.0;   ///< cost of the slowest stage (incl. boundary link time)
};

class NetPartitioner {
 public:
  /// `net` must be finalized. `spec`/`link` calibrate the cost model the
  /// balance is computed against (defaults match the single-device sim).
  /// `device_capacity` > 0 enables memory awareness: stages whose working-set
  /// floor exceeds it are rejected (0 = unlimited, the pre-capacity default).
  /// `observed` (profile-guided partitioning) overrides per-layer seconds in
  /// the balance; null keeps the analytic roofline and cuts byte-identical
  /// to the pre-profile releases (pinned by test_partitioner).
  explicit NetPartitioner(const Net& net, sim::DeviceSpec spec = sim::k40c_spec(),
                          sim::LinkSpec link = sim::pcie_p2p_link_spec(),
                          uint64_t device_capacity = 0, LayerCostFn observed = nullptr);

  /// Route positions i (0 < i < route size) where the net may be cut between
  /// route[i-1] and route[i]: exactly one layer output crosses. Ascending.
  const std::vector<int>& valid_cuts() const { return valid_cuts_; }

  /// Route index of the unique producer whose output crosses `cut`
  /// (-1 when the cut is not valid).
  int boundary_producer(int cut) const;

  /// Modeled forward+backward seconds of one layer (roofline cost model).
  /// Always analytic — the observed override applies only to the balance
  /// prefixes, so callers can compare analytic vs profile-guided weight.
  double layer_seconds(const Layer* l) const;

  /// Peak working-set floor of stage [begin, end) under full offload:
  /// persistent (param + param-grad) bytes plus the larger of (a) the
  /// largest single layer's non-param tensor set and (b) the pinned
  /// stage-boundary tensors the trainers keep device-resident for the whole
  /// run. Offload cannot shrink a stage below this.
  uint64_t stage_min_bytes(int begin, int end) const;

  /// False when a capacity is set and stage [begin, end) cannot fit its pool
  /// even with everything offloadable offloaded.
  bool stage_fits(int begin, int end) const {
    return device_capacity_ == 0 || stage_min_bytes(begin, end) <= device_capacity_;
  }

  uint64_t device_capacity() const { return device_capacity_; }

  /// Cost-balanced partition into `stages` contiguous stages over the valid
  /// cuts: minimizes the slowest stage's compute + boundary-link seconds.
  /// `microbatches` is the column schedule's M: when M > 1 every stage but
  /// the last re-materializes its forward before each backward
  /// (dist::ScheduleEngine), so the balance charges those stages their
  /// forward seconds once more; at M = 1 no stage re-materializes. Without
  /// that weighting the last stage runs systematically light and its saved
  /// remat time turns into pipeline idle. Throws std::invalid_argument when
  /// fewer than `stages`-1 valid cuts exist.
  PartitionPlan partition(int stages, int microbatches = 1) const;

  /// Explicit-boundary override: `cuts` must be ascending valid cut
  /// positions, each boundary produced inside the immediately preceding
  /// stage. Throws std::invalid_argument otherwise.
  PartitionPlan partition_at(const std::vector<int>& cuts) const;

 private:
  PartitionPlan make_plan(const std::vector<int>& cuts) const;
  /// Compute + outgoing boundary link seconds; `remat` adds the stage's
  /// forward seconds once more (stash-and-recompute steady state).
  double stage_cost(int begin, int end, bool remat = false) const;
  int scan_boundary_producer(int cut) const;    ///< O(route * fan-in); ctor fills producer_

  const Net& net_;
  sim::CostModel cost_;
  sim::LinkSpec link_;
  uint64_t device_capacity_ = 0;
  LayerCostFn observed_;  ///< null = analytic balance
  std::vector<int> pos_;         ///< layer id -> route position
  std::vector<double> prefix_;   ///< prefix_[i] = sum of layer_seconds(route[0..i))
  std::vector<double> fwd_prefix_;  ///< forward-only seconds prefix (remat weighting)
  std::vector<int> producer_;    ///< cut position -> crossing producer (-1 = invalid cut)
  std::vector<int> valid_cuts_;
  /// Memory-awareness inputs per route position: persistent (param +
  /// param-grad) byte prefix sums, and each layer's non-param l_i term with
  /// a sparse range-max table so stage_min_bytes is O(1) inside the
  /// partition DP (like prefix_, cached: the DP must not rescan).
  std::vector<uint64_t> persist_prefix_;
  std::vector<uint64_t> nonparam_peak_;
  std::vector<std::vector<uint64_t>> peak_table_;  ///< [k][i] = max of [i, i + 2^k)
};

/// Materialize stage `stage` of `plan` as a standalone finalized Net at the
/// source net's batch size. Preserves layer names; stages after the first
/// get a gradient-carrying DataLayer named "STAGE_IN" in place of the
/// upstream boundary producer.
std::unique_ptr<Net> extract_stage(const Net& src, const PartitionPlan& plan, int stage);

}  // namespace sn::graph
