// dist::ScheduleEngine — the column-schedule engine behind the hybrid
// trainer.
//
// The trainer drives one abstract machine: S pipeline stages, M
// microbatches per column, activations streaming down stage links and
// gradients streaming back up. The engine emits the ORDER of per-stage
// forward/backward ops as a flat, single-threaded op list the trainer
// replays verbatim, binding each op to Runtime::forward_pass /
// backward_pass plus TransferEngine::submit_p2p streaming.
//
// The one schedule is PipeDream-flush (1F1B; Narayanan et al., ICML'21).
// Stage s runs w_s = min(M, S-1-s) warmup forwards, then alternates
// one-forward-one-backward (backwards retire m ASCENDING), then w_s
// cooldown backwards. Stage S-1 never idles after its first activation
// arrives, and at most min(M, S-s+1) microbatch inputs are ever live per
// stage. Every backward of a stage below S-1 re-materializes its forward
// from the stashed input when M > 1 (a newer forward or an older backward
// ran in between); at M = 1 no backward does. Backwards retiring
// ascending does not change numerics — the trainer snapshots each
// microbatch's gradients and combines them with the ascending-m
// binary-counter pairwise tree (util/pairwise.hpp) regardless of execution
// order.
//
// The global interleaving is a deterministic greedy round-robin: repeatedly
// scan stages in ascending order and emit each stage's next op when its
// cross-stage dependency (activation from s-1 for a forward, gradient from
// s+1 for a backward) has already been emitted. This reproduces the classic
// 1F1B wavefront and guarantees sends precede their receives in list order.
//
// Stash slots: the engine assigns every (stage, microbatch) a reusable slot
// index with an interval walk over the emitted list — a slot is live from
// the producing send (the forward at stage s-1) until the backward at stage
// s retires it; allocation is lowest-free-slot. peak_stash_slots() is what
// the trainer sizes its stash arrays with.
//
// Gradient buckets: the engine emits kBucketReady(s, b) ops for each of the
// caller-declared buckets of stage s immediately after that stage's last
// backward — the earliest point the stage's fused gradient is complete. The
// hybrid trainer binds these to Communicator::all_reduce_async, overlapping
// each stage row's collective with the stages still draining below it.
#pragma once

#include <stdexcept>
#include <vector>

namespace sn::dist {

/// The column schedule. PipeDream-flush is the only one; the enum stays so
/// configurations that name it keep compiling.
enum class SchedulePolicy {
  k1F1B,  ///< PipeDream-flush: warmup, one-forward-one-backward, cooldown
};

enum class ScheduleOpKind {
  kForward,      ///< run forward of (stage, microbatch); stream activation down
  kBackward,     ///< run backward of (stage, microbatch); stream gradient up
  kBucketReady,  ///< stage's fused-gradient bucket complete: issue its all-reduce
};

/// Where an op falls in its stage's timeline (telemetry only; kFill ops are
/// warmup forwards, kDrain ops are cooldown backwards, everything between is
/// kSteady).
enum class SchedulePhase { kFill = 0, kSteady = 1, kDrain = 2 };

struct ScheduleOp {
  ScheduleOpKind kind = ScheduleOpKind::kForward;
  int stage = 0;
  int microbatch = -1;  ///< -1 for kBucketReady
  int bucket = -1;      ///< -1 except kBucketReady
  /// kBackward only: the stage's resident activations belong to a different
  /// microbatch, so the trainer must re-materialize forward(microbatch) from
  /// the stashed input before running the backward.
  bool recompute = false;
  /// kForward on stages >= 1: stash slot this microbatch's boundary input
  /// lands in (and is re-materialized from); -1 otherwise.
  int stash_slot = -1;
  SchedulePhase phase = SchedulePhase::kFill;

  bool operator==(const ScheduleOp& o) const {
    return kind == o.kind && stage == o.stage && microbatch == o.microbatch &&
           bucket == o.bucket && recompute == o.recompute && stash_slot == o.stash_slot &&
           phase == o.phase;
  }
};

class ScheduleEngine {
 public:
  /// `buckets` declares how many fused-gradient buckets each stage splits
  /// into (size S, every entry >= 1); empty = no kBucketReady ops.
  ScheduleEngine(int stages, int microbatches, std::vector<int> buckets = {});

  const std::vector<ScheduleOp>& ops() const { return ops_; }
  int stages() const { return stages_; }
  int microbatches() const { return microbatches_; }

  /// Max stash slots ever live at `stage` (0 for stage 0: it reads the
  /// dataset, not a streamed input): min(M, S - stage + 1).
  int peak_stash_slots(int stage) const {
    return peak_slots_[static_cast<size_t>(stage)];
  }
  /// Slot assigned to (stage, microbatch); -1 for stage 0.
  int stash_slot(int stage, int microbatch) const {
    if (stage == 0) return -1;
    return slot_[static_cast<size_t>(stage)][static_cast<size_t>(microbatch)];
  }

 private:
  void emit_1f1b();
  void assign_stash_slots();

  int stages_;
  int microbatches_;
  std::vector<int> buckets_;
  std::vector<ScheduleOp> ops_;
  std::vector<std::vector<int>> slot_;  ///< [stage][microbatch] -> stash slot
  std::vector<int> peak_slots_;         ///< [stage]
};

}  // namespace sn::dist
