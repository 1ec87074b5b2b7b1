// Runtime edge cases and failure injection: host-pool exhaustion, the
// native-allocator (cudaMalloc-model) path, offload release ordering,
// prefetch effectiveness, reuse-alias accounting, and construction errors.
#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;

TEST(RuntimeEdges, HostPoolExhaustionIsACleanOom) {
  // Device far too small AND host pool too small to absorb the offloads.
  auto net = graph::build_alexnet(32);  // full-size images: activations dominate
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  o.recompute = core::RecomputeMode::kNone;  // force offloads, not drops
  uint64_t params = 0;
  for (const auto& t : net->registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      params += t->bytes();
  }
  o.device_capacity = params + net->max_layer_bytes() / 2;
  o.host_capacity = 1 << 20;  // 1 MB host pool: offload targets can't fit
  core::Runtime rt(*net, o);
  EXPECT_THROW(rt.train_iteration(nullptr, nullptr), core::OomError);
}

TEST(RuntimeEdges, NativeChargePolicySchedulesCorrectly) {
  // The allocator's cudaMalloc charge policy must produce the same scheduling
  // decisions, just slower — Table 2's premise.
  auto run_with = [](bool pool) {
    auto net = graph::build_mini_alexnet(4);
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    o.use_pool_allocator = pool;
    core::Runtime rt(*net, o);
    auto st = rt.train_iteration(nullptr, nullptr);
    return st;
  };
  auto with_pool = run_with(true);
  auto native = run_with(false);
  EXPECT_GT(native.malloc_seconds, with_pool.malloc_seconds * 10);
  EXPECT_GT(native.seconds, with_pool.seconds);
  // Identical structural schedule: same peak within rounding differences of
  // the two allocators' block sizes (256 B vs 1 KB).
  EXPECT_NEAR(static_cast<double>(native.peak_mem), static_cast<double>(with_pool.peak_mem),
              0.05 * with_pool.peak_mem);
}

TEST(RuntimeEdges, PrefetchOverlapsBackwardTransfers) {
  // With eager offload + prefetch enabled, steady-state stall time should be
  // a small fraction of the iteration (most transfer latency hidden).
  auto net = graph::build_alexnet(128);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  o.tensor_cache = false;  // force the transfer path
  o.recompute = core::RecomputeMode::kNone;
  core::Runtime rt(*net, o);
  rt.train_iteration(nullptr, nullptr);
  auto st = rt.train_iteration(nullptr, nullptr);
  ASSERT_GT(st.bytes_d2h, 0u);
  ASSERT_GT(st.bytes_h2d, 0u);
  EXPECT_LT(st.stall_seconds, 0.35 * st.seconds);
}

TEST(RuntimeEdges, SyncTransfersStallMore) {
  auto stall_frac = [](bool async) {
    auto net = graph::build_alexnet(128);
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    o.tensor_cache = false;
    o.recompute = core::RecomputeMode::kNone;
    o.async_transfers = async;
    core::Runtime rt(*net, o);
    rt.train_iteration(nullptr, nullptr);
    auto st = rt.train_iteration(nullptr, nullptr);
    return st.stall_seconds / st.seconds;
  };
  EXPECT_LT(stall_frac(true), stall_frac(false));
}

TEST(RuntimeEdges, ReuseGradBuffersShrinksCaffePeak) {
  auto peak_with = [](bool reuse) {
    auto net = graph::build_vgg(16, 8);
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kCaffeLike);
    o.real = false;
    o.reuse_grad_buffers = reuse;
    o.device_capacity = 64ull << 30;
    core::Runtime rt(*net, o);
    return rt.train_iteration(nullptr, nullptr).peak_mem;
  };
  uint64_t with = peak_with(true);
  uint64_t without = peak_with(false);
  EXPECT_LT(with, without);
  // §2.2: "saves up to 50% of memory on a linear network".
  EXPECT_LT(with, static_cast<uint64_t>(0.8 * without));
}

TEST(RuntimeEdges, UnfinalizedNetIsRejected) {
  graph::Net net;
  net.data("d", tensor::Shape{1, 1, 4, 4});
  core::RuntimeOptions o;
  EXPECT_THROW(core::Runtime rt(net, o), std::logic_error);
}

TEST(RuntimeEdges, DisconnectedGraphFailsFinalize) {
  graph::Net net;
  auto* d = net.data("d", tensor::Shape{1, 1, 4, 4});
  net.relu("r", d);
  // A layer wired to nothing reachable from DATA.
  net.add(std::make_unique<graph::ActLayer>("orphan_src"), {});
  EXPECT_THROW(net.finalize(), std::logic_error);
}

TEST(RuntimeEdges, OomErrorCarriesDiagnostics) {
  auto net = graph::build_mini_alexnet(8);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  o.device_capacity = 64 << 10;
  core::Runtime rt(*net, o);
  try {
    rt.train_iteration(nullptr, nullptr);
    FAIL() << "expected OomError";
  } catch (const core::OomError& e) {
    EXPECT_GT(e.requested, 0u);
    EXPECT_FALSE(e.what.empty());
  }
}

TEST(RuntimeEdges, BaselinePeakEqualsTotalTensorDemand) {
  // The paper's baseline formula: every tensor allocated, nothing freed.
  auto net = graph::build_mini_alexnet(8);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kBaselineNaive);
  o.real = false;
  o.allow_workspace = false;  // exclude conv scratch from the comparison
  o.device_capacity = 4ull << 30;
  core::Runtime rt(*net, o);
  auto st = rt.train_iteration(nullptr, nullptr);
  // Allocator rounding (tiny tensors on 256 B blocks) adds a few percent.
  double total = static_cast<double>(net->total_tensor_bytes());
  EXPECT_NEAR(static_cast<double>(st.peak_mem), total, 0.06 * total);
}

TEST(RuntimeEdges, TelemetryClockIsMonotone) {
  auto net = graph::build_mini_alexnet(4);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  core::Runtime rt(*net, o);
  rt.train_iteration(nullptr, nullptr);
  double last = -1.0;
  for (const auto& t : rt.step_telemetry()) {
    EXPECT_GE(t.clock, last);
    last = t.clock;
  }
}

}  // namespace
