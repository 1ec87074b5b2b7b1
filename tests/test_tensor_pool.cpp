// UnifiedTensorPool + async TransferEngine integration tests:
//
//   1. Real/sim parity — identical options produce the identical transfer
//      schedule (telemetry-visible byte and submission counts) whether the
//      runtime is backed or accounting-only.
//   2. NUMERICS INVARIANCE of the async engine — training with the DMA
//      thread is bit-identical, loss and weights, to synchronous transfers,
//      while the transfers demonstrably complete on the DMA thread.
//   3. StepTelemetry exposes the host-pool and transfer-engine state, and
//      the DMA engine itself never draws on the host pool.
//   4. Bad frees are counted (release) / fatal (debug) in both pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "graph/zoo.hpp"
#include "mem/host_pool.hpp"
#include "sim/cluster.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;
using core::PolicyPreset;
using core::RuntimeOptions;

uint64_t param_bytes(const graph::Net& net) {
  uint64_t params = 0;
  for (const auto& t : net.registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      params += t->bytes();
  }
  return params;
}

/// Options under which mini-alexnet training must offload: tight device
/// capacity, recompute disabled (so eviction cannot drop — it must
/// transfer), liveness off (so tensors accumulate and create pressure),
/// conv algorithm pinned so only scheduling varies.
RuntimeOptions starved_opts(bool real) {
  auto probe = graph::build_mini_alexnet(4);
  RuntimeOptions o = core::make_policy(PolicyPreset::kSuperNeurons);
  o.real = real;
  o.allow_workspace = false;
  o.recompute = core::RecomputeMode::kNone;
  o.use_liveness = false;
  o.device_capacity = param_bytes(*probe) + 2 * probe->max_layer_bytes();
  o.host_capacity = 64ull << 20;
  return o;
}

std::map<std::string, std::vector<float>> param_snapshot(core::Runtime& rt) {
  std::map<std::string, std::vector<float>> snap;
  for (const auto& l : rt.net().layers()) {
    for (const auto* p : l->params()) snap[p->name()] = rt.read_tensor(p);
  }
  return snap;
}

TEST(TensorPool, RealAndSimModesProduceTheSameTransferSchedule) {
  // The engine's completion decisions are gated on virtual time in both
  // backends, so backing the buffers must not change a single scheduling
  // decision: byte counts, submissions, evictions and allocation counts all
  // match between real and sim runs of the same configuration.
  auto run = [](bool real) {
    auto net = graph::build_mini_alexnet(4);
    core::Runtime rt(*net, starved_opts(real));
    std::vector<core::IterationStats> stats;
    for (int i = 0; i < 3; ++i) stats.push_back(rt.train_iteration(nullptr, nullptr));
    return stats;
  };
  auto sim = run(false);
  auto real = run(true);
  ASSERT_EQ(sim.size(), real.size());
  uint64_t total_d2h = 0;
  for (size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim[i].bytes_d2h, real[i].bytes_d2h) << "iteration " << i;
    EXPECT_EQ(sim[i].bytes_h2d, real[i].bytes_h2d) << "iteration " << i;
    EXPECT_EQ(sim[i].evictions, real[i].evictions) << "iteration " << i;
    EXPECT_EQ(sim[i].allocs, real[i].allocs) << "iteration " << i;
    EXPECT_EQ(sim[i].peak_mem, real[i].peak_mem) << "iteration " << i;
    total_d2h += real[i].bytes_d2h;
  }
  EXPECT_GT(total_d2h, 0u) << "parity test ran without exercising transfers";
}

TEST(TensorPool, DmaEngineDrawsNothingFromTheHostPool) {
  // The DMA workers copy straight between device and host-pool buffers, so
  // the host pool holds offloaded tensors only: a real+async run reports the
  // same host-pool peak as the sim run of the same schedule.
  auto host_peak = [](bool real) {
    auto net = graph::build_mini_alexnet(4);
    core::Runtime rt(*net, starved_opts(real));
    EXPECT_EQ(rt.transfer_engine().async_backend(), real);
    uint64_t peak = 0;
    for (int i = 0; i < 3; ++i) {
      peak = std::max(peak, rt.train_iteration(nullptr, nullptr).host_peak);
    }
    return peak;
  };
  const uint64_t sim_peak = host_peak(false);
  EXPECT_GT(sim_peak, 0u) << "no offloads: equal peaks would show nothing";
  EXPECT_EQ(host_peak(true), sim_peak);

  // P2P link workers start lazily; starting one must not touch the pool
  // either.
  sim::Cluster cluster(sim::pcie_cluster_spec(2));
  auto net = graph::build_mini_alexnet(4);
  RuntimeOptions o = starved_opts(/*real=*/true);
  o.cluster = &cluster;
  core::Runtime rt(*net, o);
  std::vector<float> src(4096, 1.5f), dst(4096, 0.0f);
  core::TransferEngine& eng = rt.tensor_pool().engine();
  eng.submit_p2p(1, src.data(), dst.data(), src.size() * sizeof(float), /*peer=*/1, 0.0);
  eng.wait(core::TransferDir::kP2P, 1);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(eng.stats().dma_copies_p2p, 1u);
  EXPECT_EQ(rt.tensor_pool().host_pool().in_use(), 0u);
  EXPECT_EQ(rt.tensor_pool().host_pool().peak_in_use(), 0u);
}

TEST(TensorPool, AsyncEngineIsBitIdenticalToSyncTransfers) {
  // The flagship property extended to the threaded engine: per-iteration
  // losses and final weights must match the synchronous run bit-for-bit
  // while the copies really run on the DMA thread.
  auto run = [](bool async) {
    auto net = graph::build_mini_alexnet(4);
    RuntimeOptions o = starved_opts(/*real=*/true);
    o.async_transfers = async;
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 6, .lr = 0.02f, .momentum = 0.9f});
    auto report = trainer.run();
    uint64_t d2h = 0, dma = 0;
    for (const auto& st : report.stats) {
      d2h += st.bytes_d2h;
      dma += st.dma_copies;  // per-iteration delta
    }
    return std::tuple(report.losses, param_snapshot(rt), d2h, dma);
  };
  auto [sync_losses, sync_params, sync_d2h, sync_dma] = run(false);
  auto [async_losses, async_params, async_d2h, async_dma] = run(true);

  EXPECT_GT(sync_d2h, 0u) << "sync run did not offload";
  EXPECT_GT(async_d2h, 0u) << "async run did not offload";
  EXPECT_EQ(sync_dma, 0u) << "sync engine must not use the DMA thread";
  EXPECT_GT(async_dma, 0u) << "async engine never used the DMA thread";

  ASSERT_EQ(sync_losses.size(), async_losses.size());
  for (size_t i = 0; i < sync_losses.size(); ++i) {
    ASSERT_EQ(sync_losses[i], async_losses[i]) << "loss diverged at iteration " << i;
  }
  ASSERT_EQ(sync_params.size(), async_params.size());
  for (const auto& [name, ref] : sync_params) {
    const auto& got = async_params.at(name);
    ASSERT_EQ(ref.size(), got.size()) << name;
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << name << " diverged at element " << i;
    }
  }
}

TEST(TensorPool, AsyncEngineStressManyIterationsStaysIdentical) {
  // Longer threaded soak: repeated pressure-driven evict/offload/prefetch
  // cycles through the DMA thread must never corrupt an offloaded tensor.
  auto losses = [](bool async) {
    auto net = graph::build_tiny_resnet(4, 2);
    RuntimeOptions o = core::make_policy(PolicyPreset::kSuperNeurons);
    o.real = true;
    o.allow_workspace = false;
    o.recompute = core::RecomputeMode::kNone;
    o.use_liveness = false;
    o.host_capacity = 64ull << 20;
    {
      auto probe = graph::build_tiny_resnet(4, 2);
      o.device_capacity = param_bytes(*probe) + 4 * probe->max_layer_bytes();
    }
    o.async_transfers = async;
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 12, .lr = 0.02f, .momentum = 0.9f});
    return trainer.run().losses;
  };
  auto sync = losses(false);
  auto async = losses(true);
  ASSERT_EQ(sync.size(), async.size());
  for (size_t i = 0; i < sync.size(); ++i) {
    ASSERT_EQ(sync[i], async[i]) << "loss diverged at iteration " << i;
  }
}

TEST(TensorPool, StepTelemetryExposesHostPoolAndTransferState) {
  auto net = graph::build_mini_alexnet(4);
  RuntimeOptions o = starved_opts(/*real=*/true);
  core::Runtime rt(*net, o);
  rt.train_iteration(nullptr, nullptr);
  rt.train_iteration(nullptr, nullptr);

  uint64_t max_host_in_use = 0, max_host_peak = 0;
  uint64_t last_d2h_submitted = 0, last_d2h_completed = 0, last_dma = 0;
  for (const auto& t : rt.step_telemetry()) {
    max_host_in_use = std::max(max_host_in_use, t.host_in_use);
    max_host_peak = std::max(max_host_peak, t.host_peak);
    // Cumulative counters are monotone within the iteration.
    EXPECT_GE(t.d2h_submitted, last_d2h_submitted);
    EXPECT_GE(t.d2h_completed, last_d2h_completed);
    EXPECT_GE(t.d2h_submitted, t.d2h_completed);
    last_d2h_submitted = t.d2h_submitted;
    last_d2h_completed = t.d2h_completed;
    last_dma = std::max(last_dma, t.dma_copies);
  }
  EXPECT_GT(max_host_in_use, 0u) << "offloaded bytes never visible in telemetry";
  EXPECT_GE(max_host_peak, max_host_in_use);
  EXPECT_GT(last_d2h_completed, 0u) << "no offload completion visible in telemetry";
  EXPECT_GT(last_dma, 0u) << "no DMA-thread completion visible in telemetry";
  EXPECT_EQ(rt.tensor_pool().host_pool().stats().bad_frees, 0u);

  // After the end-of-iteration drain nothing may remain in flight.
  EXPECT_EQ(rt.transfer_engine().pending_count(core::TransferDir::kD2H), 0u);
  EXPECT_EQ(rt.transfer_engine().pending_count(core::TransferDir::kH2D), 0u);
}

TEST(TensorPool, PrefetchLookaheadDepthDoesNotChangeNumerics) {
  auto run = [](int lookahead) {
    auto net = graph::build_mini_alexnet(4);
    RuntimeOptions o = starved_opts(/*real=*/true);
    o.prefetch_lookahead = lookahead;
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 4, .lr = 0.02f});
    trainer.run();
    return param_snapshot(rt);
  };
  auto shallow = run(1);
  auto deep = run(3);
  for (const auto& [name, ref] : shallow) {
    const auto& got = deep.at(name);
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << name << " diverged at element " << i;
    }
  }
}

TEST(TensorPool, MarkDirtyInvalidatesTheCleanStateButKeepsTheHostBuffer) {
  // A def fetched back from host (partially accumulated gradient) is about
  // to be rewritten by a kernel: the kBoth "clean" state must drop so
  // pass-0 eviction cannot resurrect the stale host bytes — but the host
  // allocation stays, ready for the re-offload.
  tensor::TensorRegistry reg;
  sim::Machine m(sim::k40c_spec());
  core::UnifiedTensorPool::Config cfg;
  cfg.real = true;
  cfg.device_capacity = 1 << 20;
  cfg.host_capacity = 4 << 20;
  core::UnifiedTensorPool pool(reg, m, cfg, {});
  tensor::Tensor* t = reg.create("grad", tensor::Shape{1, 1, 8, 8}, tensor::TensorKind::kGrad);

  pool.alloc_device(t);
  pool.offload_to_host(t, /*async=*/false);
  ASSERT_EQ(t->residency, tensor::Residency::kHost);
  const uint64_t host_handle = t->host_handle;
  ASSERT_NE(host_handle, 0u);

  ASSERT_TRUE(pool.fetch(t));
  ASSERT_EQ(t->residency, tensor::Residency::kBoth);

  pool.mark_dirty(t);
  EXPECT_EQ(t->residency, tensor::Residency::kDevice);
  EXPECT_EQ(t->host_handle, host_handle) << "host buffer should be kept for reuse";

  // Re-offload after the rewrite reuses the same host allocation.
  pool.offload_to_host(t, /*async=*/false);
  EXPECT_EQ(t->residency, tensor::Residency::kHost);
  EXPECT_EQ(t->host_handle, host_handle);
  EXPECT_EQ(pool.host_pool().stats().bad_frees, 0u);
}

TEST(HostPoolContract, BadFreeIsCountedOrFatal) {
  mem::HostPool hp(1 << 20, true, true);
  uint64_t h = hp.allocate(512);
  ASSERT_NE(h, 0u);
  hp.deallocate(h);
#ifdef NDEBUG
  hp.deallocate(h);  // double free: counted, not corrupting
  EXPECT_EQ(hp.stats().bad_frees, 1u);
  EXPECT_EQ(hp.in_use(), 0u);
#else
  EXPECT_DEATH(hp.deallocate(h), "");
#endif
  EXPECT_EQ(hp.stats().alloc_calls, 1u);
}

TEST(MemPoolContract, BadFreeIsCountedOrFatal) {
  mem::MemoryPool pool(1 << 20);
  auto a = pool.allocate(1024);
  ASSERT_TRUE(a);
  pool.deallocate(a->id);
#ifdef NDEBUG
  pool.deallocate(a->id);
  EXPECT_EQ(pool.stats().bad_frees, 1u);
  EXPECT_TRUE(pool.validate());
#else
  EXPECT_DEATH(pool.deallocate(a->id), "");
#endif
}

}  // namespace
