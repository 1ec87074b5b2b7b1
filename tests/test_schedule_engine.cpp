// ScheduleEngine tests: the op stream is a load-bearing contract. It must
// reproduce the hand-derived PipeDream-flush (1F1B) wavefront, including
// recompute flags, phase stamps, stash-slot reuse, and kBucketReady
// placement. The
// exact sequences below were derived by hand from the dependency rules
// (Forward(s,m) needs fwd_done[s-1][m]; Backward(s,m) needs
// bwd_done[s+1][m]) and the greedy ascending-stage round-robin.
#include <gtest/gtest.h>

#include <vector>

#include "dist/schedule_engine.hpp"

namespace {

using namespace sn::dist;

using Kind = ScheduleOpKind;

struct OpPin {
  Kind kind;
  int stage;
  int mb;  ///< microbatch, or bucket index for kBucketReady
};

std::vector<OpPin> pins_of(const ScheduleEngine& eng) {
  std::vector<OpPin> out;
  for (const ScheduleOp& op : eng.ops()) {
    out.push_back({op.kind, op.stage,
                   op.kind == Kind::kBucketReady ? op.bucket : op.microbatch});
  }
  return out;
}

void expect_ops(const ScheduleEngine& eng, const std::vector<OpPin>& want) {
  auto got = pins_of(eng);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<int>(got[i].kind), static_cast<int>(want[i].kind)) << "op " << i;
    EXPECT_EQ(got[i].stage, want[i].stage) << "op " << i;
    EXPECT_EQ(got[i].mb, want[i].mb) << "op " << i;
  }
}

constexpr Kind F = Kind::kForward, B = Kind::kBackward, R = Kind::kBucketReady;

TEST(ScheduleEngine, OneF1BTwoStagesFourMicrobatches) {
  ScheduleEngine eng(2, 4);
  expect_ops(eng, {{F, 0, 0}, {F, 1, 0}, {F, 0, 1}, {B, 1, 0},
                   {B, 0, 0}, {F, 1, 1}, {F, 0, 2}, {B, 1, 1},
                   {B, 0, 1}, {F, 1, 2}, {F, 0, 3}, {B, 1, 2},
                   {B, 0, 2}, {F, 1, 3}, {B, 1, 3}, {B, 0, 3}});
  for (const ScheduleOp& op : eng.ops()) {
    if (op.kind != Kind::kBackward) continue;
    // The last stage runs backward right after its own forward (resident
    // activations); every other stage interleaved a NEWER forward in
    // between and must re-materialize.
    EXPECT_EQ(op.recompute, op.stage != 1) << "B(" << op.stage << ", " << op.microbatch << ")";
  }
  // Peak stash: min(M, S - s + 1) = 2 slots, not all 4; slots alternate.
  EXPECT_EQ(eng.peak_stash_slots(1), 2);
  EXPECT_EQ(eng.stash_slot(1, 0), 0);
  EXPECT_EQ(eng.stash_slot(1, 1), 1);
  EXPECT_EQ(eng.stash_slot(1, 2), 0);
  EXPECT_EQ(eng.stash_slot(1, 3), 1);
  EXPECT_EQ(eng.stash_slot(0, 2), -1);  // stage 0 reads the dataset
}

TEST(ScheduleEngine, OneF1BThreeStagesSixMicrobatches) {
  ScheduleEngine eng(3, 6);
  expect_ops(eng, {{F, 0, 0}, {F, 1, 0}, {F, 2, 0}, {F, 0, 1}, {F, 1, 1}, {B, 2, 0},
                   {F, 0, 2}, {B, 1, 0}, {F, 2, 1}, {B, 0, 0}, {F, 1, 2}, {B, 2, 1},
                   {F, 0, 3}, {B, 1, 1}, {F, 2, 2}, {B, 0, 1}, {F, 1, 3}, {B, 2, 2},
                   {F, 0, 4}, {B, 1, 2}, {F, 2, 3}, {B, 0, 2}, {F, 1, 4}, {B, 2, 3},
                   {F, 0, 5}, {B, 1, 3}, {F, 2, 4}, {B, 0, 3}, {F, 1, 5}, {B, 2, 4},
                   {B, 1, 4}, {F, 2, 5}, {B, 0, 4}, {B, 2, 5}, {B, 1, 5}, {B, 0, 5}});
  // Peak stash min(M, S - s + 1): stage 1 -> 3, stage 2 -> 2 (of 6).
  EXPECT_EQ(eng.peak_stash_slots(1), 3);
  EXPECT_EQ(eng.peak_stash_slots(2), 2);
  // Last stage never re-materializes; upstream stages always do.
  for (const ScheduleOp& op : eng.ops()) {
    if (op.kind != Kind::kBackward) continue;
    EXPECT_EQ(op.recompute, op.stage != 2) << "B(" << op.stage << ", " << op.microbatch << ")";
  }
}

TEST(ScheduleEngine, PhasesPartitionWarmupSteadyCooldown) {
  ScheduleEngine eng(3, 6);
  // Stage s: w = min(M, S-1-s) warmup forwards (kFill), w cooldown
  // backwards (kDrain), everything else kSteady.
  int fill[3] = {0, 0, 0}, drain[3] = {0, 0, 0}, steady[3] = {0, 0, 0};
  for (const ScheduleOp& op : eng.ops()) {
    const size_t s = static_cast<size_t>(op.stage);
    switch (op.phase) {
      case SchedulePhase::kFill: ++fill[s]; EXPECT_EQ(op.kind, Kind::kForward); break;
      case SchedulePhase::kDrain: ++drain[s]; EXPECT_EQ(op.kind, Kind::kBackward); break;
      case SchedulePhase::kSteady: ++steady[s]; break;
    }
  }
  EXPECT_EQ(fill[0], 2); EXPECT_EQ(drain[0], 2); EXPECT_EQ(steady[0], 8);
  EXPECT_EQ(fill[1], 1); EXPECT_EQ(drain[1], 1); EXPECT_EQ(steady[1], 10);
  EXPECT_EQ(fill[2], 0); EXPECT_EQ(drain[2], 0); EXPECT_EQ(steady[2], 12);
}

TEST(ScheduleEngine, BucketReadyOpsFollowEachStagesLastBackward) {
  ScheduleEngine eng(2, 4, {2, 3});
  // Stage 1's last backward B(1,3) precedes stage 0's B(0,3), so its
  // buckets issue FIRST — that is the whole overlap: the row's all-reduce
  // starts while upstream stages are still draining.
  expect_ops(eng, {{F, 0, 0}, {F, 1, 0}, {F, 0, 1}, {B, 1, 0},
                   {B, 0, 0}, {F, 1, 1}, {F, 0, 2}, {B, 1, 1},
                   {B, 0, 1}, {F, 1, 2}, {F, 0, 3}, {B, 1, 2},
                   {B, 0, 2}, {F, 1, 3}, {B, 1, 3},
                   {R, 1, 0}, {R, 1, 1}, {R, 1, 2},
                   {B, 0, 3}, {R, 0, 0}, {R, 0, 1}});
  for (const ScheduleOp& op : eng.ops()) {
    if (op.kind == Kind::kBucketReady) {
      EXPECT_EQ(op.microbatch, -1);
      EXPECT_GE(op.bucket, 0);
    } else {
      EXPECT_EQ(op.bucket, -1);
    }
  }
}

TEST(ScheduleEngine, DegenerateShapes) {
  {
    // S=1: no links, no stash; 1F1B degenerates to F B F B ... per microbatch.
    ScheduleEngine eng(1, 3);
    expect_ops(eng, {{F, 0, 0}, {B, 0, 0}, {F, 0, 1}, {B, 0, 1}, {F, 0, 2}, {B, 0, 2}});
    EXPECT_EQ(eng.peak_stash_slots(0), 0);
    for (const ScheduleOp& op : eng.ops()) EXPECT_FALSE(op.recompute);
  }
  {
    // M=1: one forward column down, one backward column up, and every
    // backward finds its own forward's activations resident.
    ScheduleEngine eng(3, 1);
    expect_ops(eng, {{F, 0, 0}, {F, 1, 0}, {F, 2, 0}, {B, 2, 0}, {B, 1, 0}, {B, 0, 0}});
    for (const ScheduleOp& op : eng.ops()) EXPECT_FALSE(op.recompute);
    EXPECT_EQ(eng.peak_stash_slots(1), 1);
    EXPECT_EQ(eng.peak_stash_slots(2), 1);
  }
}

TEST(ScheduleEngine, EveryScheduleIsDependencyValid) {
  // Structural sanity over a sweep: each microbatch forwards down then
  // backwards up, receives matching earlier sends, and every (stage,
  // microbatch) appears exactly once per direction. Re-materialization
  // falls exactly where NetPartitioner::partition(S, M) charges it: every
  // backward below the last stage when M > 1, none at M = 1.
  for (int S : {1, 2, 3, 4, 5}) {
    for (int M : {1, 2, 3, 4, 6, 8}) {
      SCOPED_TRACE(::testing::Message() << "S=" << S << " M=" << M);
      ScheduleEngine eng(S, M);
      std::vector<std::vector<bool>> fwd(static_cast<size_t>(S),
                                         std::vector<bool>(static_cast<size_t>(M), false));
      auto bwd = fwd;
      for (const ScheduleOp& op : eng.ops()) {
        const size_t s = static_cast<size_t>(op.stage), m = static_cast<size_t>(op.microbatch);
        if (op.kind == Kind::kForward) {
          ASSERT_FALSE(fwd[s][m]);
          if (op.stage > 0) {
            ASSERT_TRUE(fwd[s - 1][m]);
          }
          fwd[s][m] = true;
        } else {
          ASSERT_FALSE(bwd[s][m]);
          ASSERT_TRUE(fwd[s][m]);
          if (op.stage + 1 < S) {
            ASSERT_TRUE(bwd[s + 1][m]);
          }
          bwd[s][m] = true;
          EXPECT_EQ(op.recompute, M > 1 && op.stage + 1 < S)
              << "B(" << op.stage << ", " << op.microbatch << ")";
        }
      }
      for (int s = 0; s < S; ++s) {
        for (int m = 0; m < M; ++m) {
          ASSERT_TRUE(fwd[static_cast<size_t>(s)][static_cast<size_t>(m)]);
          ASSERT_TRUE(bwd[static_cast<size_t>(s)][static_cast<size_t>(m)]);
        }
      }
      // The stash never holds all M inputs once M > S.
      for (int s = 1; s < S; ++s) {
        EXPECT_LE(eng.peak_stash_slots(s), M);
        if (M > S) {
          EXPECT_LT(eng.peak_stash_slots(s), M);
        }
      }
    }
  }
}

TEST(ScheduleEngine, RejectsBadShapes) {
  EXPECT_THROW(ScheduleEngine(0, 2), std::invalid_argument);
  EXPECT_THROW(ScheduleEngine(2, 0), std::invalid_argument);
  // Bucket vector must cover every stage with a positive count.
  EXPECT_THROW(ScheduleEngine(2, 2, {1}), std::invalid_argument);
  EXPECT_THROW(ScheduleEngine(2, 2, {1, 0}), std::invalid_argument);
}

}  // namespace
