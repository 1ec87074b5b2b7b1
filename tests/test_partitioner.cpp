// NetPartitioner tests: valid-cut discovery on linear and fan/join graphs,
// cost-balanced and explicit partitions, and stage extraction (structure,
// boundary gradient plumbing, name preservation for seeded init).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/partitioner.hpp"
#include "graph/zoo.hpp"
#include "sim/cluster.hpp"

namespace {

using namespace sn;
using graph::NetPartitioner;

TEST(NetPartitioner, LinearNetCutsEverywhere) {
  auto net = graph::build_tiny_linear(4);
  NetPartitioner part(*net);
  const int n = static_cast<int>(net->route().size());
  ASSERT_EQ(static_cast<int>(part.valid_cuts().size()), n - 1);
  for (int cut = 1; cut < n; ++cut) {
    // On a chain the crossing tensor is always the previous layer's output.
    EXPECT_EQ(part.boundary_producer(cut), cut - 1);
  }
}

TEST(NetPartitioner, FanJoinRestrictsCutsToArticulationPoints) {
  auto net = graph::build_tiny_fanjoin(4);
  NetPartitioner part(*net);
  const auto& route = net->route();
  const int n = static_cast<int>(route.size());
  std::unordered_set<int> valid(part.valid_cuts().begin(), part.valid_cuts().end());
  ASSERT_FALSE(valid.empty());

  // While both branches of the fork are live, two tensors cross: invalid.
  bool found_invalid = false;
  for (int cut = 1; cut < n; ++cut) {
    if (!valid.count(cut)) {
      EXPECT_EQ(part.boundary_producer(cut), -1);
      found_invalid = true;
    } else {
      EXPECT_GE(part.boundary_producer(cut), 0);
    }
  }
  EXPECT_TRUE(found_invalid) << "a fan/join net must have uncuttable positions";
}

TEST(NetPartitioner, ResidualNetHasCutsBetweenUnits) {
  auto net = graph::build_tiny_resnet(2, 3);
  NetPartitioner part(*net);
  EXPECT_FALSE(part.valid_cuts().empty());
  EXPECT_LT(part.valid_cuts().size(), net->route().size() - 1)
      << "cuts inside a residual unit must be rejected";
  auto plan = part.partition(2);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages[0].begin, 0);
  EXPECT_EQ(plan.stages[0].end, plan.stages[1].begin);
  EXPECT_EQ(plan.stages[1].end, static_cast<int>(net->route().size()));
}

TEST(NetPartitioner, BalancedPartitionMinimizesTheSlowestStage) {
  auto net = graph::build_mini_alexnet(4);
  NetPartitioner part(*net);
  auto best = part.partition(2);
  ASSERT_EQ(best.cuts.size(), 1u);
  // Exhaustive check: no single valid cut beats the DP's bottleneck stage.
  for (int cut : part.valid_cuts()) {
    auto plan = part.partition_at({cut});
    EXPECT_GE(plan.max_stage_seconds, best.max_stage_seconds) << "cut " << cut;
  }
}

TEST(NetPartitioner, StageComputeSecondsPartitionTheRoute) {
  auto net = graph::build_tiny_linear(4);
  NetPartitioner part(*net);
  auto plan = part.partition(3);
  ASSERT_EQ(plan.stages.size(), 3u);
  double total = 0.0;
  for (const auto& s : plan.stages) total += s.compute_seconds;
  double direct = 0.0;
  for (const auto* l : net->route()) direct += part.layer_seconds(l);
  EXPECT_NEAR(total, direct, 1e-12);
  // Every stage but the last ships a boundary tensor.
  EXPECT_GT(plan.stages[0].boundary_bytes, 0u);
  EXPECT_GT(plan.stages[1].boundary_bytes, 0u);
  EXPECT_EQ(plan.stages[2].boundary_bytes, 0u);
  EXPECT_EQ(plan.stages[2].boundary_layer, -1);
}

TEST(NetPartitioner, ExplicitBoundariesAreRespectedAndValidated) {
  auto net = graph::build_tiny_linear(4);
  NetPartitioner part(*net);
  const int cut = part.valid_cuts()[part.valid_cuts().size() / 2];
  auto plan = part.partition_at({cut});
  ASSERT_EQ(plan.cuts.size(), 1u);
  EXPECT_EQ(plan.cuts[0], cut);
  EXPECT_EQ(plan.stages[0].end, cut);
  EXPECT_EQ(plan.stages[1].begin, cut);

  EXPECT_THROW(part.partition_at({0}), std::invalid_argument);
  EXPECT_THROW(part.partition_at({static_cast<int>(net->route().size()) + 1}),
               std::invalid_argument);
  EXPECT_THROW(part.partition_at({cut, cut}), std::invalid_argument);
}

TEST(NetPartitioner, InvalidFanCutThrows) {
  auto net = graph::build_tiny_fanjoin(4);
  NetPartitioner part(*net);
  std::unordered_set<int> valid(part.valid_cuts().begin(), part.valid_cuts().end());
  int bad = -1;
  for (int cut = 1; cut < static_cast<int>(net->route().size()); ++cut) {
    if (!valid.count(cut)) {
      bad = cut;
      break;
    }
  }
  ASSERT_GE(bad, 0);
  EXPECT_THROW(part.partition_at({bad}), std::invalid_argument);
}

TEST(NetPartitioner, TooManyStagesThrows) {
  auto net = graph::build_tiny_linear(4);
  NetPartitioner part(*net);
  const int n = static_cast<int>(net->route().size());
  EXPECT_THROW(part.partition(n + 1), std::invalid_argument);
  EXPECT_THROW(part.partition(0), std::invalid_argument);
}

TEST(NetPartitioner, StageMinBytesCoverPersistentPlusPeakLayer) {
  auto net = graph::build_mini_alexnet(4);
  NetPartitioner part(*net);
  const int n = static_cast<int>(net->route().size());
  // The whole-net floor: every param + param grad persists, plus at least
  // the biggest layer's own operand set.
  uint64_t persist = 0;
  for (const auto* l : net->route()) {
    for (const auto* p : l->params()) persist += p->bytes();
    for (const auto* g : l->param_grads()) persist += g->bytes();
  }
  EXPECT_GT(part.stage_min_bytes(0, n), persist);
  // Sub-stages need no more than the whole net.
  const int cut = part.valid_cuts()[part.valid_cuts().size() / 2];
  EXPECT_LE(part.stage_min_bytes(0, cut), part.stage_min_bytes(0, n));
  EXPECT_LE(part.stage_min_bytes(cut, n), part.stage_min_bytes(0, n));
  // Plans report the floor per stage.
  auto plan = part.partition(2);
  EXPECT_EQ(plan.stages[0].min_bytes, part.stage_min_bytes(plan.stages[0].begin,
                                                           plan.stages[0].end));
  EXPECT_GT(plan.stages[1].min_bytes, 0u);
}

TEST(NetPartitioner, CapacityRejectsCutsWhoseStageCannotFit) {
  auto net = graph::build_mini_alexnet(4);
  NetPartitioner unlimited(*net);
  const int n = static_cast<int>(net->route().size());
  const uint64_t whole = unlimited.stage_min_bytes(0, n);

  // A pool below the single-stage floor: partition(1) must be rejected, and
  // any explicit cut producing an oversized stage must throw.
  uint64_t max_stage2 = 0;
  {
    NetPartitioner part(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), whole - 1);
    EXPECT_FALSE(part.stage_fits(0, n));
    EXPECT_THROW(part.partition(1), std::invalid_argument);
    // Memory-aware 2-stage partition still succeeds (each half fits)...
    auto plan = part.partition(2);
    for (const auto& s : plan.stages) {
      EXPECT_LE(s.min_bytes, whole - 1);
      max_stage2 = std::max(max_stage2, s.min_bytes);
    }
    // ...but pinning the boundary right behind the input leaves an
    // oversized tail stage: rejected.
    EXPECT_THROW(part.partition_at({part.valid_cuts().front()}), std::invalid_argument);
  }

  // A pool no stage can satisfy: the DP must report infeasibility instead
  // of returning an over-capacity plan.
  {
    NetPartitioner part(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), 1);
    EXPECT_THROW(part.partition(2), std::invalid_argument);
  }

  // Capacity can steer the balance away from the pure-throughput optimum:
  // with a pool just under the throughput-optimal bottleneck stage, the DP
  // picks a feasible (if slower) plan rather than failing.
  {
    NetPartitioner part(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), max_stage2);
    auto plan = part.partition(2);
    for (const auto& s : plan.stages) EXPECT_LE(s.min_bytes, max_stage2);
  }
}

TEST(NetPartitioner, NullObservedProviderKeepsCutsByteIdentical) {
  // The profile-guided seam (ISSUE 10) must be invisible when unused: a null
  // LayerCostFn — and a provider that declines every layer — produce the
  // exact plan of the legacy analytic ctor, down to the last double bit, so
  // every downstream schedule stays byte-identical.
  auto net = graph::build_mini_alexnet(4);
  NetPartitioner legacy(*net);
  NetPartitioner null_provider(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), 0, nullptr);
  NetPartitioner declining(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), 0,
                           [](const std::string&, double*, double*) { return false; });
  for (int stages : {1, 2}) {
    auto a = legacy.partition(stages);
    for (NetPartitioner* p : {&null_provider, &declining}) {
      auto b = p->partition(stages);
      EXPECT_EQ(a.cuts, b.cuts);
      EXPECT_EQ(a.max_stage_seconds, b.max_stage_seconds);  // exact, not NEAR
      ASSERT_EQ(a.stages.size(), b.stages.size());
      for (size_t s = 0; s < a.stages.size(); ++s) {
        EXPECT_EQ(a.stages[s].compute_seconds, b.stages[s].compute_seconds);
      }
    }
  }
  // Remat weighting (M > 1) flows through the same prefixes: parity there too.
  auto a = legacy.partition(2, 4);
  auto b = null_provider.partition(2, 4);
  EXPECT_EQ(a.cuts, b.cuts);
  EXPECT_EQ(a.max_stage_seconds, b.max_stage_seconds);
}

TEST(NetPartitioner, MicrobatchCountChargesTheScheduledRematerialization) {
  // With M > 1 every stage but the last re-materializes its forward before
  // each backward, and the balance charges it; at M = 1 nothing does. Both
  // sets of cuts are pinned: M = 1 keeps the forward+backward-only balance,
  // M > 1 shifts every cut toward the input so the last stage carries more.
  struct Case {
    const char* net;
    int stages;
    std::vector<int> one, many;  ///< cuts at M = 1 and at M = 4
  };
  const Case cases[] = {
      {"VGG16", 2, {14}, {13}},
      {"VGG16", 4, {8, 14, 21}, {7, 13, 18}},
      {"ResNet50", 2, {69}, {58}},
      {"ResNet50", 4, {27, 68, 120}, {26, 59, 101}},
  };
  const sim::ClusterSpec cluster = sim::nvlink_cluster_spec(4);
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.net << " S=" << c.stages);
    auto net = std::string(c.net) == "VGG16" ? graph::build_vgg(16, 8)
                                             : graph::build_resnet_preset(50, 8);
    NetPartitioner part(*net, cluster.device, cluster.link);
    EXPECT_EQ(part.partition(c.stages, 1).cuts, c.one);
    EXPECT_EQ(part.partition(c.stages).cuts, c.one);  // M defaults to 1
    EXPECT_EQ(part.partition(c.stages, 4).cuts, c.many);
    EXPECT_EQ(part.partition(c.stages, 2).cuts, c.many);  // any M > 1
  }
}

TEST(ExtractStage, SplitsLayersAndPreservesNames) {
  auto net = graph::build_mini_alexnet(4);
  NetPartitioner part(*net);
  auto plan = part.partition(2);
  auto s0 = graph::extract_stage(*net, plan, 0);
  auto s1 = graph::extract_stage(*net, plan, 1);

  // Stage 1 adds one synthetic input; every original layer appears once.
  EXPECT_EQ(s0->num_layers() + s1->num_layers(), net->num_layers() + 1);
  std::unordered_set<std::string> names;
  for (const auto& l : s0->layers()) names.insert(l->name());
  for (const auto& l : s1->layers()) names.insert(l->name());
  for (const auto& l : net->layers()) {
    EXPECT_TRUE(names.count(l->name())) << l->name() << " lost in extraction";
  }

  // The boundary handshake: stage 0's last-produced boundary tensor matches
  // stage 1's synthetic input, which carries a gradient for the backstream.
  const graph::Layer* producer = net->route()[static_cast<size_t>(plan.stages[0].boundary_layer)];
  graph::Layer* input = s1->input_layer();
  EXPECT_EQ(input->out_shape(), producer->out_shape());
  EXPECT_NE(input->output_grad(), nullptr);
  EXPECT_EQ(s1->input_layer()->name(), "STAGE_IN");
  // The original data layer never carries one.
  EXPECT_EQ(s0->input_layer()->output_grad(), nullptr);
  // Loss lives in (only) the last stage.
  EXPECT_EQ(s0->loss_layer(), nullptr);
  ASSERT_NE(s1->loss_layer(), nullptr);
}

TEST(ExtractStage, StageShapesMatchTheFullNet) {
  auto net = graph::build_tiny_resnet(2, 2);
  NetPartitioner part(*net);
  auto plan = part.partition(2);
  for (int s = 0; s < 2; ++s) {
    auto stage = graph::extract_stage(*net, plan, s);
    for (const auto& l : stage->layers()) {
      if (l.get() == stage->input_layer() && s > 0) continue;
      // Find the original by name; shapes must agree layer by layer.
      for (const auto& o : net->layers()) {
        if (o->name() == l->name()) {
          EXPECT_EQ(o->out_shape(), l->out_shape()) << l->name();
        }
      }
    }
  }
}

TEST(ExtractStage, ThreeStagePipelineChainsBoundaries) {
  auto net = graph::build_tiny_linear(4, 16);
  NetPartitioner part(*net);
  auto plan = part.partition(3);
  auto s1 = graph::extract_stage(*net, plan, 1);
  auto s2 = graph::extract_stage(*net, plan, 2);
  // Middle stage: synthetic input AND an outgoing boundary; its input shape
  // chains from stage 0's boundary, its output to stage 2's input.
  const auto& r = net->route();
  EXPECT_EQ(s1->input_layer()->out_shape(),
            r[static_cast<size_t>(plan.stages[0].boundary_layer)]->out_shape());
  EXPECT_EQ(s2->input_layer()->out_shape(),
            r[static_cast<size_t>(plan.stages[1].boundary_layer)]->out_shape());
  EXPECT_EQ(s1->loss_layer(), nullptr);
  EXPECT_NE(s2->loss_layer(), nullptr);
}

}  // namespace
