// dist/ subsystem tests: all-reduce numerics and sub-groups, and the
// collective telemetry of a pure data-parallel (1 x R) grid. Data-parallel
// training parity (sharding a batch across replicas never changes training
// results) runs on 1 x R inputs of the grid parity cases in test_hybrid.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"
#include "util/pairwise.hpp"
#include "util/rng.hpp"

namespace {

using namespace sn;

std::vector<std::vector<float>> random_buffers(int devices, uint64_t elems, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> bufs(static_cast<size_t>(devices));
  for (auto& b : bufs) {
    b.resize(elems);
    for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  }
  return bufs;
}

std::unique_ptr<dist::Communicator> make_comm(sim::Cluster& cluster,
                                              std::vector<std::unique_ptr<core::TransferEngine>>& engines) {
  std::vector<int> ids;
  std::vector<core::TransferEngine*> ptrs;
  for (int d = 0; d < cluster.size(); ++d) {
    engines.push_back(std::make_unique<core::TransferEngine>(cluster.machine(d), true, d));
    ids.push_back(d);
    ptrs.push_back(engines.back().get());
  }
  return std::make_unique<dist::Communicator>(cluster, std::move(ids), std::move(ptrs));
}

TEST(Communicator, RingAllreduceMatchesSerialReduction) {
  // A group that is not a power of two runs the ring.
  const int kDevices = 3;
  const uint64_t kElems = 1037;  // deliberately not divisible by the ring
  sim::Cluster cluster(sim::pcie_cluster_spec(kDevices));
  std::vector<std::unique_ptr<core::TransferEngine>> engines;
  auto comm = make_comm(cluster, engines);

  auto bufs = random_buffers(kDevices, kElems, 42);
  std::vector<double> reference(kElems, 0.0);
  for (const auto& b : bufs) {
    for (uint64_t i = 0; i < kElems; ++i) reference[i] += static_cast<double>(b[i]);
  }

  std::vector<float*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());
  auto stats = comm->allreduce_sum(ptrs, kElems);

  for (uint64_t i = 0; i < kElems; ++i) {
    EXPECT_NEAR(bufs[0][i], reference[i], 1e-4) << "element " << i;
  }
  // Every device finishes with bit-identical bytes.
  for (int d = 1; d < kDevices; ++d) EXPECT_EQ(bufs[0], bufs[static_cast<size_t>(d)]);
  EXPECT_EQ(stats.chunks, static_cast<uint64_t>(kDevices));
  EXPECT_EQ(stats.algo, dist::AllreduceAlgo::kRing)
      << kDevices << " devices ran " << dist::allreduce_algo_name(stats.algo);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(Communicator, HalvingDoublingMatchesThePairwiseTreeBitForBit) {
  // The exact-N>=4 invariant: for power-of-two groups the halving-doubling
  // all-reduce must reproduce the binary-counter pairwise tree
  // (util/pairwise.hpp) bit for bit — the tree a single device would build
  // over the concatenated shards.
  for (int devices : {2, 4, 8}) {
    const uint64_t kElems = 1037;  // odd, so segment halving hits uneven splits
    sim::Cluster cluster(sim::pcie_cluster_spec(devices));
    std::vector<std::unique_ptr<core::TransferEngine>> engines;
    auto comm = make_comm(cluster, engines);

    auto bufs = random_buffers(devices, kElems, 1234 + static_cast<uint64_t>(devices));
    std::vector<float> reference(kElems);
    for (uint64_t i = 0; i < kElems; ++i) {
      reference[i] = util::pairwise_sum<float>(
          static_cast<uint64_t>(devices),
          [&](uint64_t d) { return bufs[static_cast<size_t>(d)][i]; });
    }

    std::vector<float*> ptrs;
    for (auto& b : bufs) ptrs.push_back(b.data());
    auto stats = comm->allreduce_sum(ptrs, kElems);  // power of two -> halving-doubling

    EXPECT_EQ(stats.algo, dist::AllreduceAlgo::kHalvingDoubling)
        << devices << " devices ran " << dist::allreduce_algo_name(stats.algo);
    for (int d = 0; d < devices; ++d) {
      EXPECT_EQ(bufs[static_cast<size_t>(d)], reference) << devices << " devices, rank " << d;
    }
    EXPECT_GT(stats.seconds, 0.0);
    // Same per-rank volume as the ring: 2 * (N-1)/N of the buffer.
    const uint64_t total = kElems * sizeof(float);
    EXPECT_NEAR(static_cast<double>(stats.p2p_bytes),
                2.0 * (devices - 1.0) / devices * static_cast<double>(total), total * 0.01);
  }
}

TEST(Communicator, SubGroupRunsOnItsDevicesOnly) {
  // A communicator over a device subset (a hybrid stage's replica row) must
  // reduce within the group and leave the rest of the cluster untouched.
  sim::Cluster cluster(sim::pcie_cluster_spec(4));
  std::vector<std::unique_ptr<core::TransferEngine>> engines;
  for (int d = 0; d < 4; ++d) {
    engines.push_back(std::make_unique<core::TransferEngine>(cluster.machine(d), true, d));
  }
  dist::Communicator sub(cluster, {1, 3}, {engines[1].get(), engines[3].get()});
  ASSERT_EQ(sub.devices(), 2);
  EXPECT_EQ(sub.device_id(0), 1);
  EXPECT_EQ(sub.device_id(1), 3);

  const uint64_t kElems = 257;
  auto bufs = random_buffers(2, kElems, 77);
  std::vector<float> expect(kElems);
  for (uint64_t i = 0; i < kElems; ++i) expect[i] = bufs[0][i] + bufs[1][i];
  std::vector<float*> ptrs{bufs[0].data(), bufs[1].data()};
  sub.allreduce_sum(ptrs, kElems);
  EXPECT_EQ(bufs[0], expect);
  EXPECT_EQ(bufs[1], expect);

  // Group members sent; bystanders did not.
  EXPECT_GT(cluster.machine(1).counters().bytes_p2p, 0u);
  EXPECT_GT(cluster.machine(3).counters().bytes_p2p, 0u);
  EXPECT_EQ(cluster.machine(0).counters().bytes_p2p, 0u);
  EXPECT_EQ(cluster.machine(2).counters().bytes_p2p, 0u);
}

TEST(Communicator, RejectsMalformedGroups) {
  sim::Cluster cluster(sim::pcie_cluster_spec(2));
  std::vector<std::unique_ptr<core::TransferEngine>> engines;
  for (int d = 0; d < 2; ++d) {
    engines.push_back(std::make_unique<core::TransferEngine>(cluster.machine(d), true, d));
  }
  // Duplicate device, out-of-range device, engine/device mismatch.
  EXPECT_THROW(dist::Communicator(cluster, {0, 0}, {engines[0].get(), engines[1].get()}),
               std::invalid_argument);
  EXPECT_THROW(dist::Communicator(cluster, {0, 5}, {engines[0].get(), engines[1].get()}),
               std::invalid_argument);
  EXPECT_THROW(dist::Communicator(cluster, {1}, {engines[0].get()}), std::invalid_argument);
}

TEST(Communicator, TwoDeviceAllreduceIsExact) {
  const uint64_t kElems = 513;
  sim::Cluster cluster(sim::pcie_cluster_spec(2));
  std::vector<std::unique_ptr<core::TransferEngine>> engines;
  auto comm = make_comm(cluster, engines);

  auto bufs = random_buffers(2, kElems, 7);
  std::vector<float> expect(kElems);
  for (uint64_t i = 0; i < kElems; ++i) expect[i] = bufs[0][i] + bufs[1][i];

  std::vector<float*> ptrs{bufs[0].data(), bufs[1].data()};
  comm->allreduce_sum(ptrs, kElems);
  // A two-operand float add is commutative in IEEE, so both chunk owners
  // compute the exact same bits.
  EXPECT_EQ(bufs[0], expect);
  EXPECT_EQ(bufs[1], expect);
}

TEST(Communicator, UnbackedAllreduceStillModelsTimeAndTelemetry) {
  sim::Cluster cluster(sim::nvlink_cluster_spec(4));
  std::vector<std::unique_ptr<core::TransferEngine>> engines;
  auto comm = make_comm(cluster, engines);

  std::vector<float*> bufs(4, nullptr);
  auto stats = comm->allreduce_sum(bufs, 1 << 20);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.p2p_bytes, 0u);
  for (int d = 0; d < 4; ++d) {
    EXPECT_GT(cluster.machine(d).counters().bytes_p2p, 0u);
    EXPECT_GT(cluster.machine(d).counters().copies_p2p, 0u);
    EXPECT_GT(engines[static_cast<size_t>(d)]->stats().completed_p2p, 0u);
  }
  // Ring volume per device: 2 * (N-1)/N of the buffer.
  const uint64_t total = (1ull << 20) * sizeof(float);
  EXPECT_NEAR(static_cast<double>(stats.p2p_bytes), 2.0 * 3.0 / 4.0 * total, total * 0.01);
}

TEST(Communicator, NvlinkAllreduceBeatsPcie) {
  auto run = [](sim::ClusterSpec spec) {
    sim::Cluster cluster(spec);
    std::vector<std::unique_ptr<core::TransferEngine>> engines;
    auto comm = make_comm(cluster, engines);
    std::vector<float*> bufs(static_cast<size_t>(cluster.size()), nullptr);
    return comm->allreduce_sum(bufs, 25u << 20).seconds;
  };
  EXPECT_LT(run(sim::nvlink_cluster_spec(4)), run(sim::pcie_cluster_spec(4)));
}

TEST(Communicator, CombineLossSumsIsPairwise) {
  std::vector<double> sums{0.1, 0.2, 0.3, 0.4};
  double expect = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  EXPECT_EQ(dist::Communicator::combine_loss_sums(sums), expect);
}

TEST(Pairwise, ShardSumsComposeToFullSum) {
  util::Rng rng(99);
  std::vector<float> vals(64);
  for (auto& v : vals) v = rng.uniform(-2.0f, 2.0f);
  float full = util::pairwise_sum<float>(64, [&](uint64_t i) { return vals[i]; });
  float lo = util::pairwise_sum<float>(32, [&](uint64_t i) { return vals[i]; });
  float hi = util::pairwise_sum<float>(32, [&](uint64_t i) { return vals[32 + i]; });
  EXPECT_EQ(full, lo + hi);
}

// ---------------------------------------------------------------------------
// Data-parallel (1 x R) grid

TEST(DataParallel, CollectiveTelemetryIsVisible) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  o.allow_workspace = false;
  dist::HybridParallelConfig cfg;
  cfg.stages = 1;
  cfg.replicas = 4;
  cfg.microbatches = 1;
  cfg.global_batch = 8;
  cfg.cluster = sim::nvlink_cluster_spec(4);
  cfg.train.iterations = 2;
  cfg.train.lr = 0.05f;
  cfg.train.momentum = 0.9f;
  dist::HybridParallelTrainer dp(factory, o, cfg);
  auto report = dp.run();

  ASSERT_EQ(report.stats.size(), 2u);
  ASSERT_EQ(report.cell_stats[0].size(), 1u);
  ASSERT_EQ(report.cell_stats[0][0].size(), 4u);
  for (const auto& agg : report.stats) {
    EXPECT_GT(agg.p2p_bytes, 0u);
    EXPECT_GT(agg.allreduce_seconds, 0.0);
    EXPECT_GT(agg.seconds, 0.0);
    // No pipeline neighbors, so nothing can stall on one.
    EXPECT_EQ(agg.bubble_seconds, 0.0);
  }
  for (const auto& st : report.cell_stats[0][0]) {
    EXPECT_GT(st.p2p_bytes, 0u);
    EXPECT_GT(st.allreduce_seconds, 0.0);
  }
  // Per-step telemetry is attributed to its device and replica column.
  EXPECT_EQ(dp.runtime(0, 3).step_telemetry().front().device_id, 3);
  EXPECT_EQ(dp.runtime(0, 3).step_telemetry().front().replica, 3);
  EXPECT_EQ(dp.runtime(0, 3).step_telemetry().front().stage, 0);
}

}  // namespace
