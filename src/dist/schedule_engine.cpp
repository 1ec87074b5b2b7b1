#include "dist/schedule_engine.hpp"

#include <algorithm>

namespace sn::dist {

ScheduleEngine::ScheduleEngine(int stages, int microbatches, std::vector<int> buckets)
    : stages_(stages), microbatches_(microbatches), buckets_(std::move(buckets)) {
  if (stages_ < 1) throw std::invalid_argument("schedule: stages >= 1");
  if (microbatches_ < 1) throw std::invalid_argument("schedule: microbatches >= 1");
  if (!buckets_.empty()) {
    if (static_cast<int>(buckets_.size()) != stages_) {
      throw std::invalid_argument("schedule: need one bucket count per stage");
    }
    for (int b : buckets_) {
      if (b < 1) throw std::invalid_argument("schedule: bucket counts >= 1");
    }
  }
  emit_1f1b();
  assign_stash_slots();
}

void ScheduleEngine::emit_1f1b() {
  const int S = stages_, M = microbatches_;
  // Per-stage 1F1B sequence: w_s warmup forwards, then alternate
  // forward(w_s + i) / backward(i), then the w_s cooldown backwards.
  struct StageOp {
    bool forward;
    int m;
    SchedulePhase phase;
  };
  std::vector<std::vector<StageOp>> seq(static_cast<size_t>(S));
  for (int s = 0; s < S; ++s) {
    const int w = std::min(M, S - 1 - s);
    auto& q = seq[static_cast<size_t>(s)];
    for (int i = 0; i < w; ++i) q.push_back({true, i, SchedulePhase::kFill});
    int f = w, b = 0;
    while (f < M || b < M) {
      if (f < M) q.push_back({true, f++, SchedulePhase::kSteady});
      if (b < M) {
        // Cooldown = the backwards left after the stage's last forward.
        const SchedulePhase ph = f >= M && b >= M - w && w > 0 ? SchedulePhase::kDrain
                                                               : SchedulePhase::kSteady;
        q.push_back({false, b++, ph});
      }
    }
  }

  // Greedy round-robin interleave: each round scans stages ascending and
  // emits a stage's next op when its upstream activation (forward) or
  // downstream gradient (backward) is already emitted. Sends land in list
  // order before their receives, so single-link FIFO streaming is safe.
  std::vector<size_t> next(static_cast<size_t>(S), 0);
  std::vector<std::vector<bool>> fwd_done(
      static_cast<size_t>(S), std::vector<bool>(static_cast<size_t>(M), false));
  std::vector<std::vector<bool>> bwd_done(
      static_cast<size_t>(S), std::vector<bool>(static_cast<size_t>(M), false));
  // Resident forward state per stage: backward(m) needs a re-materialization
  // unless forward(m) ran last AND no backward consumed it since.
  std::vector<int> last_forward(static_cast<size_t>(S), -1);
  size_t remaining = 0;
  for (const auto& q : seq) remaining += q.size();

  while (remaining > 0) {
    bool progressed = false;
    for (int s = 0; s < S; ++s) {
      auto& q = seq[static_cast<size_t>(s)];
      size_t& n = next[static_cast<size_t>(s)];
      if (n >= q.size()) continue;
      const StageOp& so = q[n];
      const bool ready =
          so.forward ? (s == 0 || fwd_done[static_cast<size_t>(s) - 1][static_cast<size_t>(so.m)])
                     : (s == S - 1 ||
                        bwd_done[static_cast<size_t>(s) + 1][static_cast<size_t>(so.m)]);
      if (!ready) continue;

      ScheduleOp op;
      op.stage = s;
      op.microbatch = so.m;
      op.phase = so.phase;
      if (so.forward) {
        op.kind = ScheduleOpKind::kForward;
        fwd_done[static_cast<size_t>(s)][static_cast<size_t>(so.m)] = true;
        last_forward[static_cast<size_t>(s)] = so.m;
      } else {
        op.kind = ScheduleOpKind::kBackward;
        op.recompute = last_forward[static_cast<size_t>(s)] != so.m;
        last_forward[static_cast<size_t>(s)] = -1;  // backward consumes the activations
        bwd_done[static_cast<size_t>(s)][static_cast<size_t>(so.m)] = true;
      }
      ops_.push_back(op);
      ++n;
      --remaining;
      progressed = true;

      // A stage's fused gradient is complete at its last backward: its
      // buckets' all-reduces can launch while other stages still drain.
      if (!so.forward && so.m == M - 1 && !buckets_.empty()) {
        for (int b = 0; b < buckets_[static_cast<size_t>(s)]; ++b) {
          ScheduleOp br;
          br.kind = ScheduleOpKind::kBucketReady;
          br.stage = s;
          br.bucket = b;
          br.phase = SchedulePhase::kDrain;
          ops_.push_back(br);
        }
      }
    }
    if (!progressed) throw std::logic_error("schedule: deadlocked emission (engine bug)");
  }
}

void ScheduleEngine::assign_stash_slots() {
  const int S = stages_, M = microbatches_;
  slot_.assign(static_cast<size_t>(S), std::vector<int>(static_cast<size_t>(M), -1));
  peak_slots_.assign(static_cast<size_t>(S), 0);
  // Interval walk: a stage's slot for microbatch m is live from the send
  // (the forward at stage s-1, whose submit starts writing the slot) until
  // the backward at stage s (whose re-materialization reads it last).
  // Lowest-free-slot allocation.
  std::vector<std::vector<bool>> in_use(static_cast<size_t>(S));
  for (auto& v : in_use) v.assign(static_cast<size_t>(M), false);
  for (const ScheduleOp& op : ops_) {
    if (op.kind == ScheduleOpKind::kForward && op.stage + 1 < S) {
      auto& used = in_use[static_cast<size_t>(op.stage) + 1];
      int sl = 0;
      while (used[static_cast<size_t>(sl)]) ++sl;
      used[static_cast<size_t>(sl)] = true;
      slot_[static_cast<size_t>(op.stage) + 1][static_cast<size_t>(op.microbatch)] = sl;
      int live = 0;
      for (bool u : used) live += u ? 1 : 0;
      peak_slots_[static_cast<size_t>(op.stage) + 1] =
          std::max(peak_slots_[static_cast<size_t>(op.stage) + 1], live);
    } else if (op.kind == ScheduleOpKind::kBackward && op.stage > 0) {
      const int sl = slot_[static_cast<size_t>(op.stage)][static_cast<size_t>(op.microbatch)];
      in_use[static_cast<size_t>(op.stage)][static_cast<size_t>(sl)] = false;
    }
  }
  // Stamp the assigned slot into the forward ops (receiver-side index).
  for (ScheduleOp& op : ops_) {
    if (op.kind == ScheduleOpKind::kForward && op.stage > 0) {
      op.stash_slot = slot_[static_cast<size_t>(op.stage)][static_cast<size_t>(op.microbatch)];
    }
  }
}

}  // namespace sn::dist
