// dist::HybridParallelTrainer — 2D hybrid parallelism: pipeline stages
// replicated across a second cluster axis.
//
// The cluster's S*R devices form a sim::GridView — S pipeline-stage rows by
// R replica columns. The net is cut into S stages (graph::NetPartitioner,
// memory-aware: every stage must fit its pool even at the full-offload
// floor) and each stage is instantiated R times, one Runtime per grid cell:
//
//                     replica 0   replica 1  ...  replica R-1
//        stage 0      dev 0       dev 1           dev R-1       ─┐ activations
//        stage 1      dev R       dev R+1          ...           ─┘ stream down
//          ...                                                      columns
//        stage S-1    ...                          dev S*R-1
//                     └────────── per-stage all-reduce ───────┘
//
// Each global batch is split across the R replica columns (contiguous
// shards, like data parallelism), and each shard into M microbatches driven
// through the 1F1B column schedule of dist::ScheduleEngine (like pipeline
// parallelism): warmup forwards, one-forward-one-backward steady state
// (backwards retire in ascending microbatch order), then cooldown. A stage
// stashes at most min(M, S-s+1) microbatch inputs and re-materializes a
// forward from its stash before each backward that needs it. Activations
// and gradients stream between corresponding stage replicas — cell (s, r)
// talks only to (s±1, r) — via TransferEngine::submit_p2p; a cell's
// forward for microbatch m is gated on the virtual landing event of that
// activation, so fill ramps and their bubbles fall out of virtual time.
//
// Each stage's fused gradient all-reduces in buckets over a SUB-GROUP
// Communicator spanning just that stage's row — S independent collectives
// on disjoint links. The buckets issue asynchronously as the stage's last
// microbatch retires, overlapping the stages still draining below it; with
// S = 1 there is no drain to overlap and the gradient is one bucket. Every
// cell then steps SGD. The drain ends at the last cell's last backward;
// collective time past it is the exposed all-reduce. S=1 is microbatched
// data parallelism (no P2P streams); R=1 is the plain pipeline (the
// one-rank collective is a no-op).
//
// Bit-parity: per-microbatch gradients are snapshotted and combined with
// the binary-counter pairwise machinery (util/pairwise.hpp) in ascending
// microbatch order REGARDLESS of backward execution order, so a replica's
// combined gradient is one contiguous-shard subtree of the full-batch
// reduction; the per-stage all-reduce (recursive halving-doubling for
// power-of-two R) combines the R subtrees in ascending rank order — the
// same binary-counter pairwise tree a single device builds. So S x R x M
// training is bit-identical (losses AND weights) to single-device training
// on the combined batch for power-of-two microbatch geometry — the paper's
// "scheduling never changes training results" invariant, extended across
// BOTH cluster axes at once. The restriction: per-sample kernels only (no
// BatchNorm batch statistics, no dropout — both couple results to a
// sample's position inside the local batch).
//
// Determinism: the trainer is single-threaded; every cross-cell dependency
// is an explicit virtual event (receivers machine-wait it; wall-clock bytes
// gate separately on TransferEngine::await_landing), so the schedule is
// bit-reproducible regardless of DMA-worker timing.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/peer_staging.hpp"
#include "core/runtime.hpp"
#include "dist/communicator.hpp"
#include "dist/schedule_engine.hpp"
#include "graph/partitioner.hpp"
#include "obs/cost_profile.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"

namespace sn::dist {

struct HybridParallelConfig {
  int stages = 2;              ///< pipeline depth S (grid rows)
  int replicas = 2;            ///< replication width R (grid columns)
  int microbatches = 2;        ///< per replica column; must divide the shard
  int global_batch = 8;        ///< split across replicas, then microbatches
  /// Unread: 1F1B is the only column schedule.
  SchedulePolicy schedule = SchedulePolicy::k1F1B;
  /// With S > 1, a stage's fused gradient splits into ceil(bytes /
  /// bucket_bytes) buckets whose row all-reduces issue asynchronously as
  /// the stage's last microbatch retires, overlapping the remaining drain
  /// (DDP-style bucketing). With S = 1 it is one bucket.
  uint64_t bucket_bytes = 4ull << 20;
  /// Explicit route cut positions (NetPartitioner::partition_at); empty =
  /// cost- and memory-balanced automatic partition.
  std::vector<int> boundaries;
  /// Profile-guided partitioning: observed per-layer seconds from a prior
  /// traced run replace the analytic roofline in the cut balance. Must
  /// outlive the trainer. Null (default) keeps cuts — and therefore every
  /// schedule — byte-identical to the analytic path.
  const obs::CostProfile* cost_profile = nullptr;
  /// Peer-memory staging (core::PeerStagingGroup): evictions may ride idle
  /// P2P links into a peer cell's pool instead of the D2H uplink, each cell
  /// donating at most peer_donation_bytes of its pool to staged guests.
  /// Off by default: with it off, every existing schedule is byte-identical
  /// to previous releases; with it on, numerics are still bit-identical
  /// (staging only re-routes copies), only the virtual timeline changes.
  bool peer_staging = false;
  uint64_t peer_donation_bytes = 1ull << 30;
  sim::ClusterSpec cluster;    ///< device + link preset; .devices is overridden to S*R
  train::TrainConfig train;    ///< iterations / lr / momentum / seed
};

struct HybridParallelReport {
  std::vector<double> losses;               ///< combined global-batch loss
  std::vector<core::IterationStats> stats;  ///< grid-aggregate per iteration
  /// Per-cell stats: cell_stats[iter][stage][replica].
  std::vector<std::vector<std::vector<core::IterationStats>>> cell_stats;

  double first_loss() const { return losses.empty() ? 0.0 : losses.front(); }
  double last_loss() const { return losses.empty() ? 0.0 : losses.back(); }
};

class HybridParallelTrainer {
 public:
  /// Builds the FULL net at a given batch size; the trainer partitions it
  /// and rebuilds per-stage nets at the microbatch size, R copies each.
  using NetFactory = std::function<std::unique_ptr<graph::Net>(int batch)>;

  /// `base` supplies the runtime policy for every cell; its spec / cluster /
  /// device_id / stage / replica / loss_batch fields are overwritten per
  /// cell. S=1 degenerates to microbatched data parallelism, R=1 to the
  /// plain pipeline.
  HybridParallelTrainer(const NetFactory& factory, core::RuntimeOptions base,
                        HybridParallelConfig cfg);

  /// Run cfg.train.iterations hybrid rounds on synthetic data.
  HybridParallelReport run();

  int stages() const { return cfg_.stages; }
  int replicas() const { return cfg_.replicas; }
  int microbatches() const { return cfg_.microbatches; }
  int microbatch_size() const { return microbatch_; }
  int shard_batch() const { return shard_; }
  const ScheduleEngine& schedule() const { return *sched_; }
  /// Fused-gradient bucket count for `stage` (1 even when empty).
  int buckets(int stage) const { return buckets_[static_cast<size_t>(stage)]; }
  /// Stash bytes allocated per cell of `stage` (0 for stage 0).
  uint64_t stash_bytes(int stage) const;
  const graph::PartitionPlan& plan() const { return plan_; }
  core::Runtime& runtime(int stage, int replica) { return *runtimes_[cell(stage, replica)]; }
  graph::Net& stage_net(int stage, int replica) { return *stage_nets_[cell(stage, replica)]; }
  sim::Cluster& cluster() { return cluster_; }
  sim::GridView& grid() { return grid_; }

  /// Attach a trace session: one recorder per grid device (ids stamped with
  /// the cell's stage/replica), hooked into the cell machines. Pass nullptr
  /// to detach. Recording is wall-clock-only — the replayed schedule and all
  /// numerics are unchanged (pinned by test_trace).
  void attach_trace(obs::TraceSession* session);

 private:
  /// Flat cell index, stage-major — matches sim::GridView device numbering.
  size_t cell(int stage, int replica) const {
    return static_cast<size_t>(stage) * static_cast<size_t>(cfg_.replicas) +
           static_cast<size_t>(replica);
  }
  core::TransferEngine& engine(int s, int r) {
    return runtimes_[cell(s, r)]->tensor_pool().engine();
  }
  float* device_ptr(int s, int r, const tensor::Tensor* t) {
    return runtimes_[cell(s, r)]->tensor_pool().device_ptr(t);
  }
  /// Stream cell (s, r)'s boundary activation down its column into the
  /// successor cell's stash slot `slot`.
  void send_activation(int s, int r, int slot);
  /// Gate cell (s, r)'s forward on the activation landing; returns the
  /// compute-stall delta (the bubble share of this wait). `phase`/`m` label
  /// the recorded stall span (SchedulePhase as int; trace-only).
  double receive_activation(int s, int r, int phase, int m);
  void send_gradient(int s, int r);
  double receive_gradient(int s, int r, int phase, int m);
  /// Retire sender-side bookkeeping of streamed transfers (opportunistic;
  /// forced at iteration end).
  void retire_streams(bool force);
  /// Pairwise-combine cell (s, r)'s per-microbatch gradient snapshots, in
  /// ascending microbatch order, into its fused buffer (real mode).
  void combine_microbatch_grads(int s, int r);
  /// Copy cell (s, r)'s all-reduced fused buffer back into its param grads.
  void scatter_fused_grads(int s, int r);

  HybridParallelConfig cfg_;
  bool real_;
  int shard_;       ///< per-replica batch = global_batch / replicas
  int microbatch_;  ///< per-microbatch batch = shard / microbatches
  std::unique_ptr<graph::Net> full_;  ///< probe net (microbatch size) the plan is cut from
  graph::PartitionPlan plan_;
  sim::Cluster cluster_;
  sim::GridView grid_;
  /// Declared before runtimes_: pools detach from the group in their
  /// destructors, so the group must outlive them.
  core::PeerStagingGroup staging_group_;
  std::vector<std::unique_ptr<graph::Net>> stage_nets_;      ///< [cell]
  std::vector<std::unique_ptr<core::Runtime>> runtimes_;     ///< [cell]
  std::vector<std::unique_ptr<Communicator>> comms_;         ///< [stage] replica-row groups
  train::SyntheticDataset dataset_;
  std::vector<float> batch_data_;
  std::vector<int32_t> batch_labels_;

  // Boundary tensors per cell (link s -> s+1 within a column; null on the
  // last stage row / first stage row respectively):
  std::vector<tensor::Tensor*> out_t_;       ///< cell (s,r): boundary activation (pinned)
  std::vector<tensor::Tensor*> out_grad_t_;  ///< cell (s,r): its gradient, landed from (s+1,r)
  std::vector<tensor::Tensor*> in_t_;        ///< cell (s,r): synthetic STAGE_IN tensor
  std::vector<tensor::Tensor*> in_grad_t_;   ///< cell (s,r): input gradient, streamed to (s-1,r)
  /// Cell (s,r)'s stashed boundary inputs, one per live stash SLOT (sized
  /// by ScheduleEngine::peak_stash_slots) — both the P2P landing site and
  /// the re-materialization source (real mode).
  std::vector<std::vector<std::vector<float>>> stash_;  ///< [cell][slot]

  /// In-flight (event, tag) FIFOs per cell link: sends push, receives pop —
  /// a link's transfers are consumed in ascending microbatch order.
  std::vector<std::deque<std::pair<sim::Event, uint64_t>>> act_q_, grad_q_;
  std::vector<std::pair<size_t, uint64_t>> in_flight_;  ///< (sender cell, tag) to retire

  /// Shared column-schedule engine (built once grad geometry fixes the
  /// per-stage bucket counts).
  std::unique_ptr<ScheduleEngine> sched_;
  std::vector<int> buckets_;  ///< [stage] fused-gradient bucket count

  /// Param-grad tensors per cell in net order (identical across a stage's
  /// replicas), per-microbatch gradient snapshots combined pairwise at the
  /// stage's first kBucketReady, and the fused flat buffers the per-stage
  /// all-reduce runs over (real mode).
  std::vector<std::vector<tensor::Tensor*>> grads_;          ///< [cell]
  std::vector<uint64_t> grad_elems_;                         ///< [stage]
  std::vector<std::vector<std::vector<float>>> grad_stash_;  ///< [cell][microbatch]
  std::vector<std::vector<float>> fused_;                    ///< [cell]

  uint64_t next_tag_ = 1;
};

}  // namespace sn::dist
