// The memory plan: every memory decision the execution route fixes before
// training starts, laid out per step for the Runtime to replay.
//
//   Free     liveness: the tensor's last use is this step (§3.2)
//   Drop     recomputation: a cheap segment output's forward consumers are
//            done and backward reads it later (§3.4)
//   Offload  UTP: a CONV/DATA output backward reads streams to host as soon
//            as it is produced, when no Tensor Cache replaces that with
//            pressure-driven eviction (§3.3.1)
//   Prefetch UTP: at a checkpoint layer's backward step, the next
//            `lookahead` checkpoint spans' backward reads, in scan order
//            (§3.3.1)
//
// The plan is built once from the net, Liveness, RecomputePlan and
// RuntimeOptions. The Runtime replays it with dynamic guards only (lock,
// residency, pending transfer, free room); which regenerated tensors exist
// is known only during replay, so the memory-centric re-drop (Fig. 9b) stays
// a per-tensor predicate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/liveness.hpp"
#include "core/options.hpp"
#include "core/recompute.hpp"
#include "graph/net.hpp"

namespace sn::core {

class MemoryPlan {
 public:
  enum class Action { kFree, kDrop, kOffload };

  struct Release {
    Action kind;
    tensor::Tensor* tensor;
  };

  MemoryPlan(const graph::Net& net, const Liveness& liveness, const RecomputePlan& recompute,
             const RuntimeOptions& opts);

  /// After step `step` executes: frees, then drops, then the eager offload.
  const std::vector<Release>& releases(int step) const { return releases_[step]; }

  /// After step `step` executes: what to stage, nearest checkpoint span
  /// first (empty off checkpoint backward steps, and without offload + async
  /// transfers).
  const std::vector<tensor::Tensor*>& prefetches(int step) const { return prefetches_[step]; }

  /// Whether a tensor regenerated for backward step `step` is dropped again:
  /// it belongs to a memory-centric segment and is read after `step`.
  bool redrop(uint64_t uid, int step) const { return step >= nfwd_ && step < redrop_until_[uid]; }

  /// Last forward step reading or defining a tensor (-1: none) — the
  /// vDNN-style release point for completed offloads.
  int last_forward_use(uint64_t uid) const { return last_forward_use_[uid]; }

  /// Checkpoint spans staged ahead (RuntimeOptions::prefetch_lookahead with
  /// the auto sentinel resolved; negatives clamp to 0).
  int lookahead() const { return lookahead_; }

 private:
  int nfwd_;
  int lookahead_;
  std::vector<int> last_forward_use_;
  std::vector<int> redrop_until_;  ///< uid -> last occurrence if memory-centric, else -1
  std::vector<std::vector<Release>> releases_;
  std::vector<std::vector<tensor::Tensor*>> prefetches_;
};

/// Per-net prefetch-lookahead default, applied when RuntimeOptions leaves
/// prefetch_lookahead at kPrefetchLookaheadAuto. The table pins what
/// bench_prefetch_lookahead measures: the linear nets (AlexNet, VGG) are
/// happiest with the paper's lookahead of exactly 1 — deeper staging
/// displaces resident tensors for no stall win — while the branchy / deep
/// zoo nets (InceptionV4, ResNet50/101/152, DenseNet) keep improving at 2+
/// because their checkpoint spans are short and fan-joins pull several
/// spans' dependencies at once. Unknown architectures get the paper's 1.
int default_prefetch_lookahead(const graph::Net& net);

}  // namespace sn::core
