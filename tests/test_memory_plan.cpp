// MemoryPlan unit tests: the prefetch lists (§3.3.1 staging order,
// checkpoint-span boundaries, lookahead depth), the Runtime's gate on
// remotely produced tensors, and plan-level invariants over the zoo, every
// recompute mode and every policy preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/memory_plan.hpp"
#include "core/recompute.hpp"
#include "core/runtime.hpp"
#include "graph/zoo.hpp"

namespace {

using namespace sn;
using core::MemoryPlan;

/// The plan the Runtime builds for `net` under `preset` (by default the
/// SuperNeurons policy: offload + async transfers, so prefetch lists exist)
/// at `lookahead`.
MemoryPlan plan_for(const graph::Net& net, int lookahead,
                    core::PolicyPreset preset = core::PolicyPreset::kSuperNeurons) {
  core::RuntimeOptions o = core::make_policy(preset);
  o.prefetch_lookahead = lookahead;
  core::Liveness lv(net, o.recompute != core::RecomputeMode::kNone);
  core::RecomputePlan rp(net, o.recompute);
  return MemoryPlan(net, lv, rp, o);
}

/// First backward step executed by a checkpoint layer (where the runtime
/// issues prefetches), excluding the route's very last step.
int first_checkpoint_backward_step(const graph::Net& net) {
  const int nfwd = static_cast<int>(net.route().size());
  for (const auto& st : net.steps()) {
    if (st.index < nfwd) continue;
    if (st.index + 1 >= static_cast<int>(net.steps().size())) continue;
    if (core::RecomputePlan::is_checkpoint_layer(st.layer)) return st.index;
  }
  return -1;
}

/// Reference implementation: deduplicated backward_uses of the steps after
/// `step`, in scan order, through `lookahead` checkpoint layers inclusive.
std::vector<tensor::Tensor*> naive_plan(const graph::Net& net, int step, int lookahead) {
  std::vector<tensor::Tensor*> out;
  std::unordered_set<uint64_t> seen;
  int checkpoints = 0;
  const auto& steps = net.steps();
  for (size_t s = static_cast<size_t>(step) + 1; s < steps.size(); ++s) {
    for (tensor::Tensor* u : steps[s].layer->backward_uses()) {
      if (seen.insert(u->uid()).second) out.push_back(u);
    }
    if (core::RecomputePlan::is_checkpoint_layer(steps[s].layer) && ++checkpoints >= lookahead)
      break;
  }
  return out;
}

// --- prefetch lists ---------------------------------------------------------

TEST(MemoryPlan, PrefetchesMatchScanOrderThroughNextCheckpoint) {
  auto net = graph::build_mini_alexnet(4);
  int step = first_checkpoint_backward_step(*net);
  ASSERT_GE(step, 0);
  const MemoryPlan mp = plan_for(*net, /*lookahead=*/1);
  EXPECT_EQ(mp.prefetches(step), naive_plan(*net, step, 1));
  EXPECT_FALSE(mp.prefetches(step).empty());
}

TEST(MemoryPlan, PrefetchesHaveNoDuplicates) {
  auto net = graph::build_tiny_resnet(4, 2);
  const MemoryPlan mp = plan_for(*net, 2);
  const int nfwd = static_cast<int>(net->route().size());
  for (const auto& st : net->steps()) {
    if (st.index < nfwd) continue;
    std::unordered_set<uint64_t> seen;
    for (tensor::Tensor* t : mp.prefetches(st.index)) {
      EXPECT_TRUE(seen.insert(t->uid()).second) << t->name();
    }
  }
}

TEST(MemoryPlan, DeeperLookaheadExtendsThePrefetchesAsAPrefix) {
  auto net = graph::build_mini_alexnet(4);
  int step = first_checkpoint_backward_step(*net);
  ASSERT_GE(step, 0);
  auto p1 = plan_for(*net, 1).prefetches(step);
  auto p3 = plan_for(*net, 3).prefetches(step);
  // Same scan, later stop: the shallow list is a prefix of the deep one
  // (until the route runs out of checkpoints).
  ASSERT_GE(p3.size(), p1.size());
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p3[i], p1[i]) << i;
}

TEST(MemoryPlan, LookaheadStopsAtCheckpointBoundaries) {
  auto net = graph::build_mini_alexnet(4);
  int step = first_checkpoint_backward_step(*net);
  ASSERT_GE(step, 0);
  const MemoryPlan mp = plan_for(*net, 1);
  // Everything staged must be read by a backward step no further than the
  // first checkpoint layer after `step`.
  const auto& steps = net->steps();
  size_t boundary = static_cast<size_t>(step) + 1;
  while (boundary < steps.size() &&
         !core::RecomputePlan::is_checkpoint_layer(steps[boundary].layer)) {
    ++boundary;
  }
  std::unordered_set<uint64_t> in_span;
  for (size_t s = static_cast<size_t>(step) + 1; s <= boundary && s < steps.size(); ++s) {
    for (tensor::Tensor* u : steps[s].layer->backward_uses()) in_span.insert(u->uid());
  }
  for (tensor::Tensor* t : mp.prefetches(step)) {
    EXPECT_TRUE(in_span.count(t->uid())) << t->name() << " staged outside the lookahead span";
  }
}

TEST(MemoryPlan, ZeroOrNegativeLookaheadDisablesPrefetching) {
  auto net = graph::build_mini_alexnet(2);
  int step = first_checkpoint_backward_step(*net);
  ASSERT_GE(step, 0);
  const MemoryPlan zero = plan_for(*net, 0);
  EXPECT_EQ(zero.lookahead(), 0);
  const MemoryPlan neg = plan_for(*net, -3);
  EXPECT_EQ(neg.lookahead(), 0);
  for (const auto& st : net->steps()) {
    EXPECT_TRUE(zero.prefetches(st.index).empty()) << st.index;
    EXPECT_TRUE(neg.prefetches(st.index).empty()) << st.index;
  }
}

TEST(MemoryPlan, DeepLookaheadListFollowsTheScan) {
  auto net = graph::build_mini_alexnet(4);
  int step = first_checkpoint_backward_step(*net);
  ASSERT_GE(step, 0);
  const MemoryPlan mp = plan_for(*net, 3);
  EXPECT_EQ(mp.prefetches(step), naive_plan(*net, step, 3));
}

TEST(MemoryPlan, PrefetchesAtLastStepAreEmpty) {
  auto net = graph::build_mini_alexnet(2);
  EXPECT_TRUE(plan_for(*net, 1).prefetches(static_cast<int>(net->steps().size()) - 1).empty());
}

TEST(MemoryPlan, PerNetDefaultLookaheadTable) {
  // Pins the bench_prefetch_lookahead result the auto default encodes:
  // linear nets stick to the paper's 1, branchy/deep nets get 2.
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_vgg(16, 1, 32, 4)), 1);
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_vgg(19, 1, 32, 4)), 1);
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_alexnet(1, 64, 8)), 1);
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_resnet_preset(50, 1, 64, 4)), 2);
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_resnet_preset(101, 1, 64, 4)), 2);
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_inception_v4(1, 299, 4)), 2);
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_densenet121(1, 64, 4)), 2);
  // Hand-built nets carry no arch tag: the paper's policy.
  EXPECT_EQ(core::default_prefetch_lookahead(*graph::build_tiny_linear(1)), 1);
}

TEST(MemoryPlan, RuntimeAppliesAutoLookaheadUnlessSet) {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  ASSERT_EQ(o.prefetch_lookahead, core::kPrefetchLookaheadAuto);
  {
    auto net = graph::build_resnet_preset(50, 1, 64, 4);
    core::Runtime rt(*net, o);
    EXPECT_EQ(rt.memory_plan().lookahead(), 2);
  }
  {
    auto net = graph::build_vgg(16, 1, 32, 4);
    core::Runtime rt(*net, o);
    EXPECT_EQ(rt.memory_plan().lookahead(), 1);
  }
  {
    // An explicit user setting always wins over the table.
    auto net = graph::build_resnet_preset(50, 1, 64, 4);
    o.prefetch_lookahead = 4;
    core::Runtime rt(*net, o);
    EXPECT_EQ(rt.memory_plan().lookahead(), 4);
  }
}

// --- replay gate ------------------------------------------------------------

TEST(MemoryPlanReplay, PendingExternalTensorsAreNotStaged) {
  // Pipeline stage boundaries are produced on a peer device: until their
  // P2P landing is waited out, prefetch replay must skip them — a host
  // fetch would stage the previous microbatch's bytes.
  auto net = graph::build_mini_alexnet(4);
  // Eager offload, no cache, no recompute: every CONV output backward reads
  // sits on the host when backward begins.
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kTfLike);
  o.prefetch_lookahead = 3;
  core::Runtime rt(*net, o);
  const MemoryPlan& mp = rt.memory_plan();

  std::unordered_set<uint64_t> offloaded, listed;
  for (const auto& st : net->steps()) {
    for (const auto& r : mp.releases(st.index)) {
      if (r.kind == MemoryPlan::Action::kOffload) offloaded.insert(r.tensor->uid());
    }
  }
  // An offloaded tensor first listed at step s but absent from step s's
  // lookahead-1 list (a span past the next checkpoint): step s+1 does not
  // read it, so the H2D submissions between step s's and step s+1's
  // telemetry include its stage exactly when the replay staged it.
  const MemoryPlan near = plan_for(*net, 1, core::PolicyPreset::kTfLike);
  int step = -1;
  const tensor::Tensor* remote = nullptr;
  for (const auto& st : net->steps()) {
    const auto& next_span = near.prefetches(st.index);
    for (tensor::Tensor* t : mp.prefetches(st.index)) {
      const bool first = listed.insert(t->uid()).second;
      if (!remote && first && offloaded.count(t->uid()) &&
          std::find(next_span.begin(), next_span.end(), t) == next_span.end()) {
        remote = t;
        step = st.index;
      }
    }
  }
  ASSERT_NE(remote, nullptr);

  auto stages_after = [&] {
    const auto& tele = rt.step_telemetry();
    return tele[step + 1].h2d_submitted - tele[step].h2d_submitted;
  };
  rt.train_iteration(nullptr, nullptr);  // warm-up
  rt.train_iteration(nullptr, nullptr);
  const uint64_t open = stages_after();
  ASSERT_GE(open, 1u);

  rt.mark_external_pending(remote);
  rt.train_iteration(nullptr, nullptr);
  EXPECT_EQ(stages_after(), open - 1);

  // Landing waited out: the replay stages it again.
  rt.mark_external_landed(remote);
  rt.train_iteration(nullptr, nullptr);
  EXPECT_EQ(stages_after(), open);
}

// --- plan invariants (no kernels run) ---------------------------------------

struct NamedNet {
  std::string name;
  std::function<std::unique_ptr<graph::Net>()> build;
};

std::vector<NamedNet> invariant_nets() {
  return {
      {"AlexNet", [] { return graph::build_alexnet(1); }},
      {"VGG16", [] { return graph::build_vgg(16, 1, 32); }},
      {"VGG19", [] { return graph::build_vgg(19, 1, 32); }},
      {"InceptionV4", [] { return graph::build_inception_v4(1); }},
      {"ResNet50", [] { return graph::build_resnet_preset(50, 1, 64); }},
      {"ResNet101", [] { return graph::build_resnet_preset(101, 1, 64); }},
      {"ResNet152", [] { return graph::build_resnet_preset(152, 1, 64); }},
      {"DenseNet121", [] { return graph::build_densenet121(1, 64); }},
      {"tiny_linear", [] { return graph::build_tiny_linear(2); }},
      {"tiny_fanjoin", [] { return graph::build_tiny_fanjoin(2); }},
      {"tiny_resnet", [] { return graph::build_tiny_resnet(2, 2); }},
      {"mini_alexnet", [] { return graph::build_mini_alexnet(2); }},
  };
}

/// Checks one plan against the facts it was built from; returns the number
/// of actions seen so callers can tell an empty plan from a busy one.
size_t check_plan(const graph::Net& net, const core::Liveness& lv,
                  const core::RecomputePlan& rp, const core::RuntimeOptions& o,
                  const MemoryPlan& mp, const std::string& ctx) {
  const auto& steps = net.steps();
  const int nfwd = static_cast<int>(net.route().size());
  std::unordered_map<uint64_t, int> drops, offloads;
  size_t actions = 0;
  for (const auto& st : steps) {
    const int k = st.index;
    for (const auto& r : mp.releases(k)) {
      ++actions;
      const uint64_t uid = r.tensor->uid();
      const std::string at = ctx + " step " + std::to_string(k) + " " + r.tensor->name();
      switch (r.kind) {
        case MemoryPlan::Action::kFree:
          EXPECT_TRUE(o.use_liveness) << at;
          EXPECT_EQ(lv.last_occurrence(uid), k) << at;
          break;
        case MemoryPlan::Action::kDrop:
          EXPECT_NE(o.recompute, core::RecomputeMode::kNone) << at;
          EXPECT_TRUE(rp.droppable(r.tensor)) << at;
          EXPECT_LT(k, nfwd) << at;
          EXPECT_EQ(mp.last_forward_use(uid), k) << at;
          EXPECT_GT(lv.last_occurrence(uid), k) << at;
          EXPECT_EQ(++drops[uid], 1) << at;
          break;
        case MemoryPlan::Action::kOffload: {
          EXPECT_TRUE(o.offload && !o.tensor_cache) << at;
          EXPECT_LT(k, nfwd) << at;
          const graph::LayerType type = st.layer->type();
          EXPECT_TRUE(type == graph::LayerType::kConv || type == graph::LayerType::kData) << at;
          EXPECT_EQ(st.layer->output(), r.tensor) << at;
          EXPECT_GE(lv.last_occurrence(uid), nfwd) << at;
          EXPECT_EQ(++offloads[uid], 1) << at;
          break;
        }
      }
    }
    if (!mp.prefetches(k).empty()) {
      actions += mp.prefetches(k).size();
      const std::string at = ctx + " step " + std::to_string(k);
      EXPECT_GE(k, nfwd) << at;
      EXPECT_TRUE(core::RecomputePlan::is_checkpoint_layer(st.layer)) << at;
      EXPECT_TRUE(o.offload && o.async_transfers) << at;
    }
  }
  // A re-drop targets a memory-centric segment tensor a later step reads.
  for (const auto& t : net.registry().all()) {
    const uint64_t uid = t->uid();
    for (int k = nfwd; k < static_cast<int>(steps.size()); ++k) {
      if (!mp.redrop(uid, k)) continue;
      ++actions;
      const std::string at = ctx + " redrop " + t->name() + " at " + std::to_string(k);
      EXPECT_TRUE(o.recompute == core::RecomputeMode::kMemoryCentric ||
                  o.recompute == core::RecomputeMode::kCostAware)
          << at;
      EXPECT_TRUE(rp.droppable(t.get())) << at;
      EXPECT_GT(lv.last_occurrence(uid), k) << at;
      break;  // one report per tensor
    }
  }
  return actions;
}

TEST(MemoryPlanInvariants, HoldOverZooModesAndPresets) {
  using core::PolicyPreset;
  using core::RecomputeMode;
  const PolicyPreset presets[] = {PolicyPreset::kBaselineNaive, PolicyPreset::kCaffeLike,
                                  PolicyPreset::kTorchLike,     PolicyPreset::kMxnetLike,
                                  PolicyPreset::kTfLike,        PolicyPreset::kSuperNeurons};
  const RecomputeMode modes[] = {RecomputeMode::kNone, RecomputeMode::kSpeedCentric,
                                 RecomputeMode::kMemoryCentric, RecomputeMode::kCostAware};
  for (const NamedNet& nn : invariant_nets()) {
    auto net = nn.build();
    for (RecomputeMode mode : modes) {
      core::Liveness lv(*net, mode != RecomputeMode::kNone);
      core::RecomputePlan rp(*net, mode);
      size_t busiest = 0;
      for (PolicyPreset preset : presets) {
        core::RuntimeOptions o = core::make_policy(preset);
        o.recompute = mode;
        const MemoryPlan mp(*net, lv, rp, o);
        const std::string ctx = nn.name + "/" + core::policy_name(preset) + "/mode" +
                                std::to_string(static_cast<int>(mode));
        busiest = std::max(busiest, check_plan(*net, lv, rp, o, mp, ctx));
      }
      EXPECT_GT(busiest, 0u) << nn.name << " mode " << static_cast<int>(mode);
    }
    // The paper's baseline frees, drops, offloads and stages nothing.
    const core::RuntimeOptions naive = core::make_policy(PolicyPreset::kBaselineNaive);
    core::Liveness lv(*net, false);
    core::RecomputePlan rp(*net, naive.recompute);
    const MemoryPlan mp(*net, lv, rp, naive);
    EXPECT_EQ(check_plan(*net, lv, rp, naive, mp, nn.name + "/Baseline"), 0u) << nn.name;
  }
}

}  // namespace
