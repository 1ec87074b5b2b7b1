// Pure-pipeline (S x 1) grid tests: microbatch-count invariance, deep
// pipes, explicit boundaries, fill/drain bubble telemetry and its phase
// split, and peer staging under the 1F1B schedule.
// Single-device parity on S x 1 grids runs as inputs of the grid parity
// cases in test_hybrid.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;

core::RuntimeOptions parity_options() {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  // Pin convolutions to the workspace-free algorithm: the dynamic choice
  // depends on free device memory, which legitimately differs between the
  // full-batch and microbatch runs.
  o.allow_workspace = false;
  return o;
}

train::TrainConfig parity_train_config(int iterations) {
  train::TrainConfig tc;
  tc.iterations = iterations;
  tc.lr = 0.05f;
  tc.momentum = 0.9f;
  return tc;
}

/// An S x 1 grid: the plain pipeline.
dist::HybridParallelConfig pipe_config(int stages, int microbatches, int global_batch,
                                       int iterations) {
  dist::HybridParallelConfig cfg;
  cfg.stages = stages;
  cfg.replicas = 1;
  cfg.microbatches = microbatches;
  cfg.global_batch = global_batch;
  cfg.cluster = sim::pcie_cluster_spec(stages);
  cfg.train = parity_train_config(iterations);
  return cfg;
}

/// Per-stage stats of one iteration's cell_stats on an S x 1 grid.
std::vector<core::IterationStats> stage_stats(
    const std::vector<std::vector<core::IterationStats>>& grid) {
  std::vector<core::IterationStats> out;
  for (const auto& row : grid) out.push_back(row[0]);
  return out;
}

TEST(PipelineParallel, MicrobatchCountDoesNotChangeResults) {
  // Power-of-two microbatch sizes are subtrees of the same pairwise
  // reduction: M=2 and M=4 must produce identical trajectories.
  auto run = [&](int microbatches) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
    dist::HybridParallelTrainer pipe(factory, parity_options(),
                                     pipe_config(2, microbatches, 8, 4));
    return pipe.run().losses;
  };
  EXPECT_EQ(run(2), run(4));
}

TEST(PipelineParallel, ThreeStagesTrainAndLearn) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
  dist::HybridParallelTrainer pipe(factory, parity_options(), pipe_config(3, 4, 8, 10));
  auto rep = pipe.run();
  EXPECT_LT(rep.last_loss(), rep.first_loss());
  // All three stages moved activations/gradients over the fabric.
  for (const auto& st : stage_stats(rep.cell_stats.back())) EXPECT_GT(st.p2p_bytes, 0u);
}

TEST(PipelineParallel, ExplicitBoundaryOverrideIsUsed) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  auto probe = factory(4);
  graph::NetPartitioner part(*probe);
  const int cut = part.valid_cuts().front();

  auto cfg = pipe_config(2, 2, 8, 1);
  cfg.boundaries = {cut};
  dist::HybridParallelTrainer pipe(factory, parity_options(), cfg);
  ASSERT_EQ(pipe.plan().cuts.size(), 1u);
  EXPECT_EQ(pipe.plan().cuts[0], cut);
  EXPECT_EQ(static_cast<int>(pipe.stage_net(0, 0).num_layers()), cut);
  auto rep = pipe.run();
  EXPECT_EQ(rep.losses.size(), 1u);
}

TEST(PipelineParallel, BubbleFractionShrinksAsMicrobatchesGrow) {
  // Pipeline bubble law: the fill/drain ramps cost ~(S-1) microbatch slots
  // regardless of M, so their fraction of the iteration falls as M rises.
  auto bubble_fraction = [](int microbatches) {
    auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    auto cfg = pipe_config(2, microbatches, 32, 2);
    cfg.cluster = sim::nvlink_cluster_spec(2);
    dist::HybridParallelTrainer pipe(factory, o, cfg);
    auto rep = pipe.run();
    const auto& agg = rep.stats.back();
    EXPECT_GT(agg.bubble_seconds, 0.0);
    return agg.bubble_seconds / (2.0 * agg.seconds);
  };
  EXPECT_LT(bubble_fraction(8), bubble_fraction(2));
}

TEST(PipelineParallel, SimModeScalesToZooNets) {
  auto factory = [](int batch) { return graph::build_vgg(16, batch); };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  auto cfg = pipe_config(4, 4, 64, 1);
  cfg.cluster = sim::nvlink_cluster_spec(4);
  dist::HybridParallelTrainer pipe(factory, o, cfg);
  auto rep = pipe.run();
  EXPECT_EQ(rep.losses[0], 0.0);  // unbacked: no numerics
  EXPECT_GT(rep.stats[0].seconds, 0.0);
  EXPECT_GT(rep.stats[0].p2p_bytes, 0u);
  EXPECT_GT(rep.stats[0].p2p_seconds, 0.0);
  // A one-rank row all-reduce is a no-op.
  EXPECT_EQ(rep.stats[0].allreduce_seconds, 0.0);
  ASSERT_EQ(rep.cell_stats[0].size(), 4u);
}

TEST(PipelineParallel, TelemetryIsVisiblePerStage) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer pipe(factory, parity_options(), pipe_config(2, 4, 8, 2));
  auto rep = pipe.run();
  ASSERT_EQ(rep.stats.size(), 2u);
  ASSERT_EQ(rep.cell_stats[0].size(), 2u);
  ASSERT_EQ(rep.cell_stats[0][0].size(), 1u);
  // Stage 0 streams activations, stage 1 streams gradients: both send.
  for (const auto& st : stage_stats(rep.cell_stats[1])) {
    EXPECT_GT(st.p2p_bytes, 0u);
    EXPECT_GT(st.seconds, 0.0);
  }
  // The downstream stage idles during fill: its bubble must be visible.
  EXPECT_GT(rep.cell_stats[1][1][0].bubble_seconds, 0.0);
  EXPECT_GT(rep.stats[1].bubble_seconds, 0.0);
  // Per-step telemetry is attributed to its cluster device and grid row.
  EXPECT_EQ(pipe.runtime(1, 0).step_telemetry().front().device_id, 1);
  EXPECT_EQ(pipe.runtime(1, 0).step_telemetry().front().stage, 1);
  EXPECT_EQ(pipe.runtime(1, 0).step_telemetry().front().replica, 0);
}

TEST(PipelineParallel, PhaseTelemetryAttributesTheBubble) {
  // The per-phase split must sum to the total bubble, and per-step
  // telemetry must carry the phase stamps.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer pipe(factory, parity_options(), pipe_config(2, 4, 8, 2));
  auto rep = pipe.run();
  for (const auto& st : stage_stats(rep.cell_stats.back())) {
    EXPECT_DOUBLE_EQ(
        st.bubble_seconds,
        st.bubble_fill_seconds + st.bubble_steady_seconds + st.bubble_drain_seconds);
  }
  // Per-step telemetry carries the schedule phase and microbatch stamps.
  bool saw_phase = false;
  for (const auto& t : pipe.runtime(1, 0).step_telemetry()) {
    if (t.sched_phase >= 0) {
      saw_phase = true;
      EXPECT_GE(t.microbatch, 0);
    }
  }
  EXPECT_TRUE(saw_phase);
}

TEST(PipelineParallel, OneF1BWithPeerStagingKeepsResultsAndStages) {
  // Peer-memory staging under PipeDream-flush: the 1F1B stash retirement
  // (ascending-m backwards, stash slots recycled mid-iteration) interleaves
  // with stage-outs and fetch-backs on the same link, and neither training
  // results nor the staging bookkeeping may notice. mini-alexnet with an
  // early explicit cut leaves stage 0 pool-constrained and stage 1 with
  // donation slack.
  auto run = [](bool staging) {
    auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
    core::RuntimeOptions o = parity_options();
    o.recompute = core::RecomputeMode::kNone;
    o.use_liveness = false;
    o.device_capacity = 3ull << 18;
    auto cfg = pipe_config(2, 4, 32, 3);
    cfg.cluster = sim::nvlink_cluster_spec(2);
    cfg.boundaries = {9};
    cfg.peer_staging = staging;
    dist::HybridParallelTrainer pipe(factory, o, cfg);
    auto rep = pipe.run();
    uint64_t staged = 0;
    for (int s = 0; s < pipe.stages(); ++s) {
      staged += pipe.runtime(s, 0).tensor_pool().peer_stage_count();
    }
    return std::tuple(rep.losses, staged);
  };
  auto [off, off_staged] = run(false);
  auto [on, on_staged] = run(true);

  EXPECT_EQ(off_staged, 0u);
  EXPECT_GT(on_staged, 0u) << "run never exercised staging";
  EXPECT_EQ(off, on) << "staging changed training results";
}

}  // namespace
