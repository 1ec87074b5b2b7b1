// The SuperNeurons runtime: a dynamic GPU-memory scheduling executor.
//
// Orchestrates one training iteration over the 2N-step route, combining
// (per RuntimeOptions):
//   * Liveness Analysis     — free tensors at their last use (§3.2)
//   * GPU Memory Pool       — amortized alloc/free (§3.2.1, Table 2)
//   * Unified Tensor Pool   — offload CONV outputs to pinned host memory,
//                             prefetch them ahead of the backward pass,
//                             overlapping DMA with compute (§3.3.1)
//   * Tensor Cache          — LRU over device tensors; transfers fire only
//                             under memory pressure (§3.3.2, Alg. 2)
//   * Cost-Aware Recompute  — drop cheap tensors, replay segments (§3.4)
//   * Dynamic Workspaces    — fastest memory-feasible conv algorithm per
//                             step (§3.5)
//
// The Runtime is the *orchestrator*: it walks the route, materializes each
// step's tensors (the pool's fetch() or a recompute replay) and, after the
// step, replays that step's frees, drops, offloads and prefetches from the
// MemoryPlan built at construction. It never names a placement tier: the
// pool's land / fetch / fetch_ahead / free_tensor / drop_tensor calls work
// alike for a host or a peer copy, and the Runtime's only residency test is
// the kDropped branch that starts recompute. Mechanisms live in layered
// subsystems —
//   MemoryPlan         (core/memory_plan.hpp)     per-step memory actions,
//                      fixed by the route and the options before training
//   UnifiedTensorPool  (core/tensor_pool.hpp)     the memory-state machine,
//                      the only code that picks host vs peer
//   TransferEngine     (core/transfer_engine.hpp) submit/poll/wait DMA, with
//                      a sim virtual-time backend and a real DMA-thread one
//
// The same scheduler runs in two modes: `real` (backed memory, kernels
// execute, numerics verifiable) and simulation (accounting + virtual time
// only), letting tests verify that scheduling NEVER changes training results
// while benches run paper-scale configurations.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/liveness.hpp"
#include "core/memory_plan.hpp"
#include "core/options.hpp"
#include "core/recompute.hpp"
#include "core/telemetry.hpp"
#include "core/tensor_pool.hpp"
#include "core/workspace.hpp"
#include "graph/net.hpp"
#include "sim/costmodel.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace sn::core {

class Runtime {
 public:
  /// `net` must be finalized and outlive the runtime.
  Runtime(graph::Net& net, RuntimeOptions opts);

  /// Place parameters (and their gradients) permanently on the device and,
  /// in real mode, initialize weights (He-normal, seeded). Throws OomError
  /// if parameters alone exceed capacity.
  void initialize();

  /// Run one forward+backward pass. `input` / `labels` may be null in
  /// simulation mode. Returns per-iteration stats; per-step telemetry for
  /// the iteration is kept in step_telemetry().
  IterationStats train_iteration(const float* input, const int32_t* labels);

  // --- microbatch-granular passes (pipeline parallelism) --------------------
  // A pipeline stage cannot run forward+backward atomically: its backward
  // depends on a gradient the NEXT stage produces from this stage's forward
  // output. These split train_iteration at the forward/backward boundary.
  // forward_pass may be called repeatedly without a backward (1F1B warmup:
  // later microbatches overwrite earlier activations; a later backward
  // re-runs forward_pass to rematerialize them); each backward_pass zeroes
  // gradients at first definition, so per-microbatch gradients come out
  // independent and the caller combines them pairwise. Neither advances the
  // iteration counter — call advance_iteration() once per global batch so
  // every microbatch (and its rematerialization) sees the same seeds.

  /// Run the forward half of an iteration (resets per-iteration state).
  /// Returns stats for the forward span only.
  IterationStats forward_pass(const float* input, const int32_t* labels);

  /// Run the backward half over the activations of the last forward_pass.
  /// `labels` must match that forward's batch when the net has a loss layer.
  /// Drains outstanding DMA; returns stats for the backward span (loss
  /// fields cover the whole microbatch).
  IterationStats backward_pass(const int32_t* labels = nullptr);

  /// Bump the iteration counter (iteration-seeded state: dropout masks).
  void advance_iteration() { ++iter_; }

  /// Stamp subsequent steps' telemetry with the column-schedule position
  /// (dist::SchedulePhase as int, plus the microbatch index); (-1, -1)
  /// clears. Telemetry-only — never affects scheduling or numerics.
  void set_schedule_phase(int phase, int microbatch) {
    sched_phase_ = phase;
    sched_microbatch_ = microbatch;
  }

  // --- externally produced tensors (pipeline stage boundaries) --------------

  /// Pin a tensor no in-stage layer defines (a P2P landing site: the
  /// upstream activation-gradient, or a boundary output read by a peer):
  /// allocate device memory now and lock it for the runtime's lifetime so
  /// liveness/eviction never reclaim it mid-stream.
  void pin_external(tensor::Tensor* t);

  /// Mark `t` remotely produced and not yet landed: prefetch replay skips it
  /// (a host fetch would stage stale bytes of the previous microbatch).
  void mark_external_pending(const tensor::Tensor* t);

  /// The P2P landing for `t` has been waited out; prefetches may stage it again.
  void mark_external_landed(const tensor::Tensor* t);

  /// Vanilla SGD over all parameters (momentum kept host-side).
  void apply_sgd(float lr, float momentum = 0.0f, float weight_decay = 0.0f);

  const std::vector<StepTelemetry>& step_telemetry() const { return telemetry_; }
  const Liveness& liveness() const { return liveness_; }
  const RecomputePlan& recompute_plan() const { return plan_; }
  sim::Machine& machine() { return machine_; }
  UnifiedTensorPool& tensor_pool() { return *pool_; }
  const UnifiedTensorPool& tensor_pool() const { return *pool_; }
  const TransferEngine& transfer_engine() const { return pool_->engine(); }
  const MemoryPlan& memory_plan() const { return memory_plan_; }
  const RuntimeOptions& options() const { return opts_; }
  graph::Net& net() { return net_; }

  /// Copy a parameter's device contents out (real mode; for tests/examples).
  std::vector<float> read_tensor(const tensor::Tensor* t);

  uint64_t current_iteration() const { return iter_; }

 private:
  float* device_ptr(const tensor::Tensor* t) { return pool_->device_ptr(t); }

  /// Make `t` usable on device right now (the pool's fetch, else
  /// recomputation).
  void materialize(tensor::Tensor* t);

  /// Replay `layer`'s forward pass to regenerate its outputs (recompute).
  void replay_forward(graph::Layer* layer);

  /// Ensure a definition target is allocated; zero gradients on first def.
  void ensure_def(tensor::Tensor* t);

  // --- step execution -------------------------------------------------------
  void exec_step(const graph::Step& step, const float* input, const int32_t* labels,
                 double* loss_out);
  void post_step(const graph::Step& step);
  /// exec_step + post_step over steps [first, last) of the 2N-step route.
  void run_steps(size_t first, size_t last, const float* input, const int32_t* labels);
  void run_layer_pass(graph::Layer* layer, bool forward, const float* input,
                      const int32_t* labels, double* loss_out, StepTelemetry* tele);
  void charge_layer_time(const graph::Layer* layer, bool forward, nn::ConvAlgo algo);

  void lock(const std::vector<tensor::Tensor*>& ts, bool locked);

  tensor::Tensor* tensor_by_uid(uint64_t uid) { return net_.registry().get(uid); }
  graph::Layer* producer_of(const tensor::Tensor* t) {
    return producer_[t->uid()];
  }

  /// Reset the per-iteration state forward_pass / train_iteration start from.
  void begin_iteration();

  /// Counter snapshot bracketing a pass; end_span() returns the deltas as
  /// IterationStats (plus the iteration-scope loss / peak fields).
  struct StatSpan {
    sim::MachineCounters c0;
    double t0 = 0.0;
    uint64_t hits0 = 0, misses0 = 0, dma0 = 0, evict0 = 0, alloc0 = 0, extra0 = 0;
    uint64_t pstage0 = 0, pstageb0 = 0, pfetch0 = 0, pspill0 = 0;
  };
  StatSpan begin_span() const;
  IterationStats end_span(const StatSpan& s);

  graph::Net& net_;
  RuntimeOptions opts_;
  /// Owned when running standalone; null when opts.cluster provides the
  /// machine (one runtime per cluster device sharing the P2P fabric).
  std::unique_ptr<sim::Machine> owned_machine_;
  sim::Machine& machine_;
  sim::CostModel cost_;
  Liveness liveness_;
  RecomputePlan plan_;
  MemoryPlan memory_plan_;
  /// Owns the device allocator, host pool, tensor cache and transfer engine;
  /// constructed in the ctor body once liveness/plan exist for its hooks.
  std::unique_ptr<UnifiedTensorPool> pool_;

  std::vector<graph::Layer*> producer_;        ///< tensor uid -> defining layer

  /// Remotely produced uids awaiting their P2P landing (prefetch gate).
  std::unordered_set<uint64_t> external_pending_;

  // per-iteration state
  std::unordered_set<uint64_t> zeroed_grads_;
  std::vector<uint64_t> regenerated_;          ///< uids replayed this backward step
  double loss_sum_ = 0.0;                      ///< raw NLL sum this iteration
  double iter_loss_ = 0.0;                     ///< normalized loss (softmax forward)
  uint64_t iter_ = 0;
  uint64_t extra_forwards_ = 0;
  bool initialized_ = false;
  int sched_phase_ = -1;       ///< schedule-phase stamp for step telemetry
  int sched_microbatch_ = -1;  ///< microbatch stamp for step telemetry
  /// True while a recompute replay is on the stack: nested materializations
  /// then use targeted chain replays instead of whole-segment eagerness
  /// (prevents replay/eviction livelock under extreme pressure).
  bool in_replay_ = false;

  std::vector<StepTelemetry> telemetry_;
  std::unordered_map<const tensor::Tensor*, std::vector<float>> momentum_;
};

}  // namespace sn::core
