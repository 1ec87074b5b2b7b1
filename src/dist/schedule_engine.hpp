// dist::ScheduleEngine — the shared column-schedule engine behind the
// pipeline and hybrid trainers.
//
// Both trainers drive the same abstract machine: S pipeline stages, M
// microbatches per column, activations streaming down stage links and
// gradients streaming back up. What differs between scheduling policies is
// only the ORDER of per-stage forward/backward ops (and therefore how many
// microbatch inputs a stage must keep stashed at once). The engine emits
// that order as a flat, single-threaded op list the trainers replay
// verbatim, binding each op to Runtime::forward_pass / backward_pass plus
// TransferEngine::submit_p2p streaming:
//
//   * kGPipe — fill then drain. Forwards sweep m ascending through every
//     stage; backwards retire m descending, newest first. A stage stashes
//     ALL M boundary inputs; every non-final backward re-materializes its
//     forward first (GPipe re-materialization). The emitted list is exactly
//     the loop nest the trainers ran before the engine existed — byte-
//     identical schedules, slot-identical stash layout.
//   * k1F1B — PipeDream-flush. Stage s runs w_s = min(M, S-1-s) warmup
//     forwards, then alternates one-forward-one-backward (backwards retire
//     m ASCENDING), then w_s cooldown backwards. The bubble shrinks (stage
//     S-1 never idles after its first activation arrives) and so does the
//     stash: at most min(M, S-s+1) microbatch inputs are ever live per
//     stage, versus GPipe's M. Backwards retiring ascending does not change
//     numerics — the trainers snapshot each microbatch's gradients and
//     combine them with the ascending-m binary-counter pairwise tree
//     (util/pairwise.hpp) regardless of execution order, so the bit-parity
//     invariant holds under both policies.
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
// the trainers size their stash arrays with, making 1F1B's smaller
// footprint real, not just theoretical. Under kGPipe the walk degenerates
// to slot == microbatch.
//
// Gradient buckets: under k1F1B the engine emits kBucketReady(s, b) ops for
// each of the caller-declared buckets of stage s immediately after that
// stage's last backward — the earliest point the stage's fused gradient is
// complete. The hybrid trainer binds these to Communicator::
// all_reduce_async, overlapping each stage row's collective with the
// stages still draining below it. kGPipe emits none (its trainers issue one
// fused all-reduce per stage after the drain).
#pragma once

#include <stdexcept>
#include <vector>

namespace sn::dist {

enum class SchedulePolicy {
  kGPipe,  ///< fill/drain: all forwards, then backwards newest-first
  k1F1B,   ///< PipeDream-flush: warmup, one-forward-one-backward, cooldown
};

const char* schedule_policy_name(SchedulePolicy p);

enum class ScheduleOpKind {
  kForward,      ///< run forward of (stage, microbatch); stream activation down
  kBackward,     ///< run backward of (stage, microbatch); stream gradient up
  kBucketReady,  ///< stage's fused-gradient bucket complete: issue its all-reduce
};

/// Where an op falls in its stage's timeline (telemetry only; kFill ops are
/// warmup forwards, kDrain ops are cooldown backwards, everything between is
/// kSteady). GPipe has no steady state: forwards are kFill, backwards kDrain.
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
  /// into (size S, every entry >= 1); empty = no kBucketReady ops. Buckets
  /// are only emitted under k1F1B — GPipe callers all-reduce after the
  /// drain and must see an unchanged op stream.
  ScheduleEngine(SchedulePolicy policy, int stages, int microbatches,
                 std::vector<int> buckets = {});

  const std::vector<ScheduleOp>& ops() const { return ops_; }
  SchedulePolicy policy() const { return policy_; }
  int stages() const { return stages_; }
  int microbatches() const { return microbatches_; }

  /// Max stash slots ever live at `stage` (0 for stage 0: it reads the
  /// dataset, not a streamed input). GPipe: M; 1F1B: min(M, S - stage + 1).
  int peak_stash_slots(int stage) const {
    return peak_slots_[static_cast<size_t>(stage)];
  }
  /// Slot assigned to (stage, microbatch); -1 for stage 0.
  int stash_slot(int stage, int microbatch) const {
    if (stage == 0) return -1;
    return slot_[static_cast<size_t>(stage)][static_cast<size_t>(microbatch)];
  }

 private:
  void emit_gpipe();
  void emit_1f1b();
  void assign_stash_slots();

  SchedulePolicy policy_;
  int stages_;
  int microbatches_;
  std::vector<int> buckets_;
  std::vector<ScheduleOp> ops_;
  std::vector<std::vector<int>> slot_;  ///< [stage][microbatch] -> stash slot
  std::vector<int> peak_slots_;         ///< [stage]
};

}  // namespace sn::dist
