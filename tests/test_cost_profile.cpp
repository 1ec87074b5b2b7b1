// obs::CostProfile tests (ISSUE 10 tentpole): ProfileStat aggregation, the
// bit-exact JSON round trip, from_session span lifting, the schema gate, and
// profile-guided partitioning — a null/declining provider keeps the analytic
// cuts, a synthetic skew moves them, and a real observed profile never picks
// a cut that measures worse than the analytic one under observed costs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/runtime.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/partitioner.hpp"
#include "graph/zoo.hpp"
#include "obs/cost_profile.hpp"
#include "obs/trace.hpp"
#include "perf/trajectory.hpp"
#include "util/json_reader.hpp"

namespace {

using namespace sn;

/// Wrap a profile as the partitioner's observed-cost provider — the same
/// lambda shape the trainers build from their cost_profile config field.
graph::LayerCostFn provider(const obs::CostProfile& prof) {
  return [&prof](const std::string& name, double* fwd, double* bwd) {
    return prof.layer_seconds(name, fwd, bwd);
  };
}

/// Synthetic profile: every route layer's analytic seconds, with layers in
/// [skew_begin, skew_end) scaled by `skew` (fwd/bwd split evenly; n=1).
obs::CostProfile synthetic_profile(const graph::Net& net, const graph::NetPartitioner& part,
                                   int skew_begin, int skew_end, double skew) {
  obs::CostProfile prof;
  const auto& route = net.route();
  std::vector<std::pair<std::string, double>> costs;
  for (int i = 0; i < static_cast<int>(route.size()); ++i) {
    double s = part.layer_seconds(route[static_cast<size_t>(i)]);
    if (i >= skew_begin && i < skew_end) s *= skew;
    costs.emplace_back(route[static_cast<size_t>(i)]->name(), s);
  }
  std::sort(costs.begin(), costs.end());  // add_layer wants sorted-by-name
  for (const auto& [name, s] : costs) {
    obs::LayerCost lc;
    lc.name = name;
    lc.fwd = obs::ProfileStat{s / 2, s / 2, s / 2, 1};
    lc.bwd = obs::ProfileStat{s / 2, s / 2, s / 2, 1};
    prof.add_layer(std::move(lc));
  }
  return prof;
}

TEST(ProfileStat, FromSamplesMedianLoHiN) {
  auto odd = obs::ProfileStat::from_samples({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  EXPECT_DOUBLE_EQ(odd.lo, 1.0);
  EXPECT_DOUBLE_EQ(odd.hi, 3.0);
  EXPECT_EQ(odd.n, 3u);

  auto even = obs::ProfileStat::from_samples({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.lo, 1.0);
  EXPECT_DOUBLE_EQ(even.hi, 4.0);
  EXPECT_EQ(even.n, 4u);

  auto empty = obs::ProfileStat::from_samples({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);
}

TEST(CostProfile, JsonRoundTripIsBitExact) {
  // Awkward doubles: non-terminating binary fractions and tiny magnitudes
  // must survive write -> parse -> write byte-identically (value_sci at 17
  // significant digits).
  obs::CostProfile p;
  obs::LayerCost conv;
  conv.name = "conv1";
  conv.fwd = obs::ProfileStat{1.0 / 3.0, 1e-9, 0.1 + 0.2, 3};
  conv.bwd = obs::ProfileStat{2.0 / 7.0, 2.0 / 7.0, 2.0 / 7.0, 1};
  p.add_layer(conv);
  obs::LayerCost fc;
  fc.name = "fc2";
  fc.fwd = obs::ProfileStat{5.0e-4, 4.9e-4, 5.1e-4, 2};
  fc.bwd = obs::ProfileStat{0.0, 0.0, 0.0, 0};  // fwd-only observation
  p.add_layer(fc);
  obs::DeviceCost d;
  d.device = 0;
  d.stage = 1;
  d.replica = 0;
  d.iterations = 2;
  d.compute = obs::ProfileStat{0.125, 0.1, 0.15, 2};
  d.stall_pipeline = obs::ProfileStat{1.0 / 977.0, 0.0, 2.0 / 977.0, 2};
  p.add_device(d);

  const std::string a = p.to_json();
  obs::CostProfile q = obs::CostProfile::from_json(util::JsonValue::parse(a));
  EXPECT_EQ(q.to_json(), a);

  // Exact (==, not NEAR) doubles after the round trip.
  double fwd = 0.0, bwd = 0.0;
  ASSERT_TRUE(q.layer_seconds("conv1", &fwd, &bwd));
  EXPECT_EQ(fwd, 1.0 / 3.0);
  EXPECT_EQ(bwd, 2.0 / 7.0);
  // fc2 has no backward observation: the provider declines, outputs intact.
  fwd = bwd = -1.0;
  EXPECT_FALSE(q.layer_seconds("fc2", &fwd, &bwd));
  EXPECT_EQ(fwd, -1.0);
  EXPECT_FALSE(q.layer_seconds("nope", &fwd, &bwd));
  ASSERT_EQ(q.devices().size(), 1u);
  EXPECT_EQ(q.devices()[0].stage, 1);
  EXPECT_EQ(q.devices()[0].stall_pipeline.median, 1.0 / 977.0);

  // Wrong-kind documents are rejected, not half-parsed.
  EXPECT_THROW(obs::CostProfile::from_json(util::JsonValue::parse("{\"kind\": \"sweep\"}")),
               util::JsonError);
}

TEST(CostProfile, SavedProfilePassesSchemaCheck) {
  auto net = graph::build_mini_alexnet(4);
  graph::NetPartitioner part(*net);
  obs::CostProfile p = synthetic_profile(*net, part, 0, 0, 1.0);
  util::JsonValue doc = util::JsonValue::parse(p.to_json(), "<inline>");
  EXPECT_GT(perf::schema_check(doc, "cost_profile", "<inline>"), 0u);
}

TEST(CostProfile, FromSessionReconcilesWithMachineCounters) {
  // Single-device marker-free trace: exactly one occupancy sample, and the
  // compute bucket must equal the machine counter delta the span ring saw.
  auto net = graph::build_tiny_linear(8);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  o.allow_workspace = false;
  core::Runtime rt(*net, o);

  obs::TraceSession session;
  obs::TraceRecorder& rec = session.recorder_for(0);
  rec.set_ids(0, -1, -1);
  rt.machine().set_trace(&rec);
  const auto c0 = rt.machine().counters();
  rt.train_iteration(nullptr, nullptr);
  const auto c1 = rt.machine().counters();
  rt.machine().set_trace(nullptr);

  obs::CostProfile prof = obs::CostProfile::from_session(session);
  ASSERT_EQ(prof.devices().size(), 1u);
  const obs::DeviceCost& d = prof.devices()[0];
  EXPECT_EQ(d.device, 0);
  EXPECT_EQ(d.iterations, 1u);
  EXPECT_EQ(d.compute.n, 1u);
  EXPECT_NEAR(d.compute.median, c1.compute_time - c0.compute_time, 1e-12);
  EXPECT_NEAR(d.h2d.median, c1.seconds_h2d - c0.seconds_h2d, 1e-12);
  EXPECT_NEAR(d.d2h.median, c1.seconds_d2h - c0.seconds_d2h, 1e-12);

  // Per-layer samples: every profiled layer was seen in both directions
  // with a sane dispersion envelope, and fc kernels are really in there.
  ASSERT_FALSE(prof.layers().empty());
  for (const auto& lc : prof.layers()) {
    EXPECT_GT(lc.fwd.n, 0u) << lc.name;
    EXPECT_GT(lc.bwd.n, 0u) << lc.name;
    EXPECT_LE(lc.fwd.lo, lc.fwd.median) << lc.name;
    EXPECT_LE(lc.fwd.median, lc.fwd.hi) << lc.name;
  }
  EXPECT_EQ(prof.layer("sgd"), nullptr);  // optimizer is occupancy, not a layer
}

TEST(CostProfile, FromSessionSplitsIterationsAtDrainMarkers) {
  // Trainer traces carry "drain-end" markers: 3 iterations on a 2x2 grid
  // must aggregate to 3 occupancy samples on each of the 4 devices.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelConfig cfg;
  cfg.stages = 2;
  cfg.replicas = 2;
  cfg.microbatches = 4;
  cfg.global_batch = 8;
  cfg.cluster = sim::pcie_cluster_spec(4);
  cfg.train.iterations = 3;
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  o.allow_workspace = false;
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  obs::TraceSession session;
  hyb.attach_trace(&session);
  hyb.run();
  hyb.attach_trace(nullptr);

  obs::CostProfile prof = obs::CostProfile::from_session(session);
  ASSERT_EQ(prof.devices().size(), 4u);
  for (const obs::DeviceCost& d : prof.devices()) {
    EXPECT_EQ(d.iterations, 3u) << "device " << d.device;
    EXPECT_EQ(d.compute.n, 3u);
    EXPECT_GE(d.stage, 0);
    EXPECT_GE(d.replica, 0);
    EXPECT_GT(d.compute.median, 0.0);
  }
  ASSERT_FALSE(prof.layers().empty());
  // The whole thing survives persistence.
  obs::CostProfile back = obs::CostProfile::from_json(util::JsonValue::parse(prof.to_json()));
  EXPECT_EQ(back.to_json(), prof.to_json());
}

TEST(CostProfile, SyntheticSkewMovesTheCutAndStaysDpOptimal) {
  // Inflate stage 0 of the analytic 2-way plan by 4x: the balance must move
  // the boundary earlier, and re-evaluating the analytic cut under observed
  // costs must never beat the observed DP's own plan (min-max optimality).
  auto net = graph::build_mini_alexnet(4);
  graph::NetPartitioner analytic(*net);
  auto plan_a = analytic.partition(2);
  ASSERT_EQ(plan_a.cuts.size(), 1u);

  obs::CostProfile prof = synthetic_profile(*net, analytic, 0, plan_a.cuts[0], 4.0);
  graph::NetPartitioner observed(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), 0,
                                 provider(prof));
  // The observed override only biases the balance; the per-layer roofline
  // accessor stays analytic for comparisons.
  EXPECT_EQ(observed.layer_seconds(net->route()[1]), analytic.layer_seconds(net->route()[1]));

  auto plan_o = observed.partition(2);
  EXPECT_NE(plan_o.cuts, plan_a.cuts) << "4x skew on a whole stage must move the boundary";
  EXPECT_LT(plan_o.cuts[0], plan_a.cuts[0]) << "inflated head stage must shrink";
  auto plan_a_under_o = observed.partition_at(plan_a.cuts);
  EXPECT_LE(plan_o.max_stage_seconds, plan_a_under_o.max_stage_seconds);
}

TEST(CostProfile, ObservedProfileNeverMeasuresWorseAndMovesSomeCut) {
  // The acceptance loop: capture a real single-device profile per bench net
  // (the runtime's dynamically chosen conv algorithms diverge from the
  // static analytic efficiency), re-partition under it, and measure BOTH cut
  // sets under observed costs. DP optimality guarantees the profile-guided
  // cut is never worse; at least one net must actually move its boundary.
  bool any_moved = false;
  for (const char* name : {"AlexNet", "VGG16"}) {
    auto net = bench::build_network(name, 8);
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    core::Runtime rt(*net, o);
    obs::TraceSession session;
    obs::TraceRecorder& rec = session.recorder_for(0);
    rec.set_ids(0, -1, -1);
    rt.machine().set_trace(&rec);
    for (int i = 0; i < 2; ++i) rt.train_iteration(nullptr, nullptr);
    rt.machine().set_trace(nullptr);
    obs::CostProfile prof = obs::CostProfile::from_session(session);

    graph::NetPartitioner analytic(*net);
    graph::NetPartitioner observed(*net, sim::k40c_spec(), sim::pcie_p2p_link_spec(), 0,
                                   provider(prof));
    for (int stages : {2, 4}) {
      auto plan_a = analytic.partition(stages);
      auto plan_o = observed.partition(stages);
      auto plan_a_under_o = observed.partition_at(plan_a.cuts);
      EXPECT_LE(plan_o.max_stage_seconds, plan_a_under_o.max_stage_seconds)
          << name << " stages=" << stages;
      if (plan_o.cuts != plan_a.cuts) any_moved = true;
    }
  }
  EXPECT_TRUE(any_moved)
      << "observed conv costs diverge from the 0.45 analytic efficiency; some cut must move";
}

}  // namespace
