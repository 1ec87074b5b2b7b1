// Runtime integration tests — the repository's central invariants:
//
//   1. Training works (loss decreases) under the full SuperNeurons policy.
//   2. NUMERICS INVARIANCE: scheduling (offload, eviction, recomputation,
//      workspace choices) never changes training results — final weights are
//      bit-identical between an unconstrained run and a memory-starved run.
//   3. Capacity safety: device in-use bytes never exceed the configured
//      capacity; impossible configurations raise OomError instead.
//   4. The paper's peak-memory laws: baseline > liveness > +offload >
//      +recomputation, with the final peak == max_i(l_i) at layer level.
//   5. Table-3 property: with the Tensor Cache and enough DRAM, an
//      iteration performs zero transfers.
#include <gtest/gtest.h>

#include <map>

#include "core/runtime.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;
using core::PolicyPreset;
using core::RuntimeOptions;

RuntimeOptions real_opts(uint64_t capacity) {
  RuntimeOptions o = core::make_policy(PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = capacity;
  o.host_capacity = 64ull << 20;
  return o;
}

/// Snapshot of every parameter after training.
std::map<std::string, std::vector<float>> param_snapshot(core::Runtime& rt) {
  std::map<std::string, std::vector<float>> snap;
  for (const auto& l : rt.net().layers()) {
    for (const auto* p : l->params()) snap[p->name()] = rt.read_tensor(p);
  }
  return snap;
}

TEST(Runtime, TrainingDecreasesLoss) {
  auto net = graph::build_mini_alexnet(8);
  core::Runtime rt(*net, real_opts(64ull << 20));
  train::Trainer trainer(rt, {.iterations = 30, .lr = 0.05f, .momentum = 0.9f});
  auto report = trainer.run();
  EXPECT_GT(report.first_loss(), 0.5 * std::log(8.0));  // near-chance at start
  EXPECT_LT(report.last_loss(), 0.7 * report.first_loss()) << "loss did not decrease";
}

TEST(Runtime, NumericsInvariantUnderMemoryPressure) {
  // The flagship property test. Identical seeds and data; wildly different
  // memory conditions; the final weights must match bit-for-bit.
  // The conv algorithm is pinned across runs: like cuDNN's algorithms, ours
  // have different summation orders, and the invariant under test is that
  // MEMORY SCHEDULING (offload/evict/recompute) changes nothing.
  auto run_with = [](RuntimeOptions opts) {
    opts.allow_workspace = false;
    auto net = graph::build_mini_alexnet(4);
    core::Runtime rt(*net, opts);
    train::Trainer trainer(rt, {.iterations = 5, .lr = 0.02f, .momentum = 0.9f});
    trainer.run();
    return param_snapshot(rt);
  };

  // Reference: effectively unlimited memory.
  auto reference = run_with(real_opts(64ull << 20));
  ASSERT_FALSE(reference.empty());

  // Starved: small capacity forces offload + eviction + recomputation.
  auto tight_opts = real_opts(0);
  {
    auto probe = graph::build_mini_alexnet(4);
    uint64_t params = 0;
    for (const auto& t : probe->registry().all()) {
      if (t->kind() == tensor::TensorKind::kParam ||
          t->kind() == tensor::TensorKind::kParamGrad)
        params += t->bytes();
    }
    tight_opts.device_capacity = params + 6 * probe->max_layer_bytes();
  }
  auto starved = run_with(tight_opts);

  ASSERT_EQ(reference.size(), starved.size());
  for (const auto& [name, ref] : reference) {
    const auto& got = starved.at(name);
    ASSERT_EQ(ref.size(), got.size()) << name;
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << name << " diverged at element " << i;
    }
  }
}

TEST(Runtime, NumericsInvariantAcrossRecomputeModes) {
  auto run_mode = [](core::RecomputeMode mode) {
    auto net = graph::build_tiny_resnet(4, 2);
    RuntimeOptions o = real_opts(64ull << 20);
    o.recompute = mode;
    o.allow_workspace = false;  // pin conv algorithm; vary only scheduling
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 4, .lr = 0.02f});
    trainer.run();
    return param_snapshot(rt);
  };
  auto none = run_mode(core::RecomputeMode::kNone);
  for (auto mode : {core::RecomputeMode::kSpeedCentric, core::RecomputeMode::kMemoryCentric,
                    core::RecomputeMode::kCostAware}) {
    auto got = run_mode(mode);
    for (const auto& [name, ref] : none) {
      const auto& g = got.at(name);
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], g[i]) << core::recompute_mode_name(mode) << " " << name << "@" << i;
      }
    }
  }
}

TEST(Runtime, AlgoChoiceDivergenceIsBounded) {
  // With dynamic workspaces enabled, a memory-starved run may legitimately
  // pick different conv algorithms (different summation order, like cuDNN);
  // the results must still agree to float tolerance.
  auto run_with = [](uint64_t capacity) {
    auto net = graph::build_mini_alexnet(4);
    RuntimeOptions o = real_opts(capacity);
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 4, .lr = 0.02f, .momentum = 0.9f});
    trainer.run();
    return param_snapshot(rt);
  };
  auto ample = run_with(64ull << 20);
  auto probe = graph::build_mini_alexnet(4);
  uint64_t params = 0;
  for (const auto& t : probe->registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      params += t->bytes();
  }
  auto tight = run_with(params + 6 * probe->max_layer_bytes());
  for (const auto& [name, ref] : ample) {
    const auto& got = tight.at(name);
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(ref[i], got[i], 1e-3f * std::max(1.0f, std::abs(ref[i]))) << name << "@" << i;
    }
  }
}

TEST(Runtime, MemoryPressureActuallyExercisesTransfers) {
  // Guard against the invariance test passing vacuously: the starved config
  // must really offload / recompute.
  auto net = graph::build_mini_alexnet(4);
  uint64_t params = 0;
  for (const auto& t : net->registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      params += t->bytes();
  }
  auto opts = real_opts(params + 6 * net->max_layer_bytes());
  core::Runtime rt(*net, opts);
  train::Trainer trainer(rt, {.iterations = 2, .lr = 0.02f});
  auto report = trainer.run();
  uint64_t d2h = 0, extra = 0;
  for (const auto& st : report.stats) {
    d2h += st.bytes_d2h;
    extra += st.extra_forwards;
  }
  EXPECT_GT(d2h + extra, 0u) << "starved run did not exercise offload or recompute";
}

TEST(Runtime, CapacityIsNeverExceeded) {
  auto net = graph::build_mini_alexnet(4);
  uint64_t params = 0;
  for (const auto& t : net->registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      params += t->bytes();
  }
  uint64_t cap = params + 6 * net->max_layer_bytes();
  core::Runtime rt(*net, real_opts(cap));
  train::Trainer trainer(rt, {.iterations = 3, .lr = 0.02f});
  auto report = trainer.run();
  for (const auto& st : report.stats) EXPECT_LE(st.peak_mem, cap);
}

TEST(Runtime, OomWhenParamsCannotFit) {
  auto net = graph::build_mini_alexnet(4);
  core::Runtime rt(*net, real_opts(16 << 10));  // 16 KB: params don't fit
  EXPECT_THROW(rt.initialize(), core::OomError);
}

TEST(Runtime, OomWhenWorkingSetCannotFit) {
  auto net = graph::build_mini_alexnet(8);
  uint64_t params = 0;
  for (const auto& t : net->registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      params += t->bytes();
  }
  // Params fit but not even one big layer's working set does.
  core::Runtime rt(*net, real_opts(params + net->max_layer_bytes() / 8));
  train::Trainer trainer(rt, {.iterations = 1});
  EXPECT_THROW(trainer.run(), core::OomError);
}

TEST(Runtime, ZeroCommunicationWhenNetworkFits) {
  // Table 3: the Tensor Cache eliminates all transfers when GPU DRAM
  // suffices — offloading would be pure overhead.
  auto net = graph::build_mini_alexnet(8);
  core::Runtime rt(*net, real_opts(64ull << 20));
  train::Trainer trainer(rt, {.iterations = 2});
  auto report = trainer.run();
  EXPECT_EQ(report.stats[1].bytes_d2h, 0u);
  EXPECT_EQ(report.stats[1].bytes_h2d, 0u);
}

TEST(Runtime, EagerOffloadTransfersWithoutCache) {
  // Without the cache (vDNN/TF style), CONV outputs stream out every
  // iteration even when memory is ample — the contrast Table 3 draws.
  auto net = graph::build_mini_alexnet(8);
  RuntimeOptions o = real_opts(64ull << 20);
  o.tensor_cache = false;
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, {.iterations = 2});
  auto report = trainer.run();
  EXPECT_GT(report.stats[1].bytes_d2h, 0u);
  EXPECT_GT(report.stats[1].bytes_h2d, 0u);
}

TEST(Runtime, PeakMemoryLawsAcrossTechniques) {
  // Fig. 10: each technique strictly reduces peak memory, ending at
  // approximately max_i(l_i).
  auto peak_with = [](bool liveness, bool offload, core::RecomputeMode rc) {
    auto net = graph::build_alexnet(32, 67, 100);  // sim-mode AlexNet
    RuntimeOptions o;
    o.real = false;
    o.use_liveness = liveness;
    o.offload = offload;
    o.tensor_cache = false;
    o.recompute = rc;
    o.async_transfers = true;
    o.allow_workspace = false;  // isolate the memory techniques from workspaces
    o.device_capacity = 48ull << 30;  // ample: measure demand, not OOM
    core::Runtime rt(*net, o);
    auto st = rt.train_iteration(nullptr, nullptr);
    return st.peak_mem;
  };
  uint64_t baseline = peak_with(false, false, core::RecomputeMode::kNone);
  uint64_t live = peak_with(true, false, core::RecomputeMode::kNone);
  uint64_t offl = peak_with(true, true, core::RecomputeMode::kNone);
  uint64_t rec = peak_with(true, true, core::RecomputeMode::kCostAware);
  EXPECT_LT(live, baseline);
  EXPECT_LT(offl, live);
  EXPECT_LT(rec, offl);
}

TEST(Runtime, PeakRestartsWithEachForwardPass) {
  // peak_mem is the device allocator's high-water mark since the pass began
  // (a 1F1B stage runs forward, backward, forward...): a forward pass after
  // a backward one must not inherit the backward peak.
  auto net = graph::build_alexnet(32, 67, 100);
  RuntimeOptions o;
  o.real = false;
  o.tensor_cache = false;
  o.allow_workspace = false;
  o.device_capacity = 48ull << 30;
  core::Runtime rt(*net, o);
  const uint64_t fwd1 = rt.forward_pass(nullptr, nullptr).peak_mem;
  const uint64_t bwd = rt.backward_pass(nullptr).peak_mem;
  const uint64_t fwd2 = rt.forward_pass(nullptr, nullptr).peak_mem;
  ASSERT_LT(fwd1, bwd);
  EXPECT_EQ(fwd2, fwd1);
}

TEST(Runtime, ExtraForwardCountsMatchPlanPrediction) {
  auto run_count = [](core::RecomputeMode mode) {
    auto net = graph::build_mini_alexnet(4);
    RuntimeOptions o = real_opts(64ull << 20);
    o.recompute = mode;
    o.offload = false;
    core::Runtime rt(*net, o);
    core::RecomputePlan plan(*net, mode);
    auto st = rt.train_iteration(nullptr, nullptr);
    return std::pair<uint64_t, uint64_t>(st.extra_forwards, plan.predicted_extra_forwards(mode));
  };
  // Real data isn't needed for counting; run in sim-of-real mode with null
  // input (DataLayer copies nothing).
  auto [speed_actual, speed_pred] = run_count(core::RecomputeMode::kSpeedCentric);
  EXPECT_EQ(speed_actual, speed_pred);
  auto [mem_actual, mem_pred] = run_count(core::RecomputeMode::kMemoryCentric);
  // The closed form is an upper bound: layers whose backward does not read
  // their own output (ReLU gates on its input) shorten the replay chains.
  EXPECT_LE(mem_actual, mem_pred);
  EXPECT_GT(mem_actual, speed_actual);
}

TEST(Runtime, SimModeMatchesPaperScaleWithoutBacking) {
  // Simulation mode schedules a 12 GB-scale network on a small machine:
  // no real memory is committed, but capacity accounting is exact.
  auto net = graph::build_resnet_preset(50, 16, 224, 1000);
  RuntimeOptions o = core::make_policy(PolicyPreset::kSuperNeurons);
  o.real = false;
  core::Runtime rt(*net, o);
  auto st = rt.train_iteration(nullptr, nullptr);
  EXPECT_GT(st.peak_mem, 1ull << 30);     // ResNet50/b16 needs GBs
  EXPECT_LE(st.peak_mem, o.device_capacity);
  EXPECT_GT(st.seconds, 0.0);
}

TEST(Runtime, FanJoinNetworksScheduleCorrectly) {
  auto net = graph::build_tiny_fanjoin(4);
  core::Runtime rt(*net, real_opts(64ull << 20));
  train::Trainer trainer(rt, {.iterations = 10, .lr = 0.05f});
  auto report = trainer.run();
  EXPECT_LT(report.last_loss(), report.first_loss());
}

TEST(Runtime, PolicyPresetsRunEndToEnd) {
  for (auto preset : {PolicyPreset::kBaselineNaive, PolicyPreset::kCaffeLike,
                      PolicyPreset::kTorchLike, PolicyPreset::kMxnetLike, PolicyPreset::kTfLike,
                      PolicyPreset::kSuperNeurons}) {
    auto net = graph::build_mini_alexnet(4);
    RuntimeOptions o = core::make_policy(preset);
    o.real = false;
    o.device_capacity = 1ull << 30;
    core::Runtime rt(*net, o);
    auto st = rt.train_iteration(nullptr, nullptr);
    EXPECT_GT(st.peak_mem, 0u) << core::policy_name(preset);
    EXPECT_GT(st.seconds, 0.0) << core::policy_name(preset);
  }
}

TEST(Runtime, SuperNeuronsRunsInLessMemoryThanOtherPolicies) {
  // The capability metric behind Tables 4/5: the minimum device capacity at
  // which a policy completes an iteration. The lazy Tensor Cache means
  // SuperNeurons' *demand* shows up under pressure, not at ample capacity.
  auto min_capacity = [](PolicyPreset preset) -> uint64_t {
    uint64_t lo = 1ull << 20, hi = 2ull << 30;
    while (lo + (1ull << 20) < hi) {
      uint64_t mid = (lo + hi) / 2;
      auto net = graph::build_alexnet(64, 67, 100);
      RuntimeOptions o = core::make_policy(preset);
      o.real = false;
      o.device_capacity = mid;
      try {
        core::Runtime rt(*net, o);
        rt.train_iteration(nullptr, nullptr);
        hi = mid;
      } catch (const core::OomError&) {
        lo = mid;
      }
    }
    return hi;
  };
  uint64_t sn = min_capacity(PolicyPreset::kSuperNeurons);
  EXPECT_LT(sn, min_capacity(PolicyPreset::kCaffeLike));
  EXPECT_LT(sn, min_capacity(PolicyPreset::kMxnetLike));
  EXPECT_LT(sn, min_capacity(PolicyPreset::kTfLike));
}

TEST(Runtime, StepTelemetryCoversAllSteps) {
  auto net = graph::build_mini_alexnet(4);
  core::Runtime rt(*net, real_opts(64ull << 20));
  rt.train_iteration(nullptr, nullptr);
  EXPECT_EQ(rt.step_telemetry().size(), net->steps().size());
  for (const auto& t : rt.step_telemetry()) {
    EXPECT_GT(t.mem_in_use, 0u);
    EXPECT_GT(t.live_tensors, 0u);
  }
}

}  // namespace
