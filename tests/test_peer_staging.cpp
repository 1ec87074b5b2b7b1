// Peer-memory staging (core::PeerStagingGroup + UnifiedTensorPool kPeer tier):
//
//   1. Round trip — stage-out over P2P, fetch-back, bytes bit-identical,
//      donation accounting returns to zero.
//   2. Routing fallbacks — no budget / no free space / peer under pressure
//      all degrade to the ordinary host path without moving anything.
//   3. Spill lattice — a host under its own allocation pressure reclaims
//      guests (oldest first, fetch-pending exempt) and the owner's tensor
//      degrades transparently to plain kHost with identical bytes.
//   4. Windowed pressure — under_pressure_now() decays as allocation traffic
//      moves past the last eviction.
//   5. Trainer integration — staging off, staging with zero budget and
//      staging on all train bit-identically; staging on actually stages on a
//      pool-constrained pipeline and every transfer drains by iteration end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/peer_staging.hpp"
#include "core/tensor_pool.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "sim/cluster.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;
using core::PeerStagingGroup;
using core::TransferDir;
using core::TransferStats;
using core::UnifiedTensorPool;
using tensor::Residency;

/// Two pools on an NVLink pair sharing one staging group. Declaration order
/// matters: the group must outlive the pools (their destructors detach).
struct Rig {
  sim::Cluster cluster{sim::nvlink_cluster_spec(2)};
  PeerStagingGroup group;
  tensor::TensorRegistry reg_a, reg_b;
  UnifiedTensorPool a, b;

  static UnifiedTensorPool::Config config(bool real, bool async, uint64_t device_capacity,
                                          int device_id) {
    UnifiedTensorPool::Config cfg;
    cfg.real = real;
    cfg.async_transfers = async;
    cfg.device_capacity = device_capacity;
    cfg.host_capacity = 64ull << 20;
    cfg.device_id = device_id;
    return cfg;
  }

  Rig(bool real, bool async, uint64_t budget, uint64_t cap_a = 8ull << 20,
      uint64_t cap_b = 8ull << 20)
      : a(reg_a, cluster.machine(0), config(real, async, cap_a, 0), {}),
        b(reg_b, cluster.machine(1), config(real, async, cap_b, 1), {}) {
    group.add_member(a, budget);
    group.add_member(b, budget);
  }
};

tensor::Tensor* make_filled(tensor::TensorRegistry& reg, UnifiedTensorPool& pool,
                            const char* name, int hw) {
  tensor::Tensor* t = reg.create(name, tensor::Shape{1, 1, hw, hw}, tensor::TensorKind::kGrad);
  pool.alloc_device(t);
  if (float* p = pool.device_ptr(t)) {
    for (int64_t i = 0; i < t->shape().elems(); ++i) p[i] = 0.25f * static_cast<float>(i % 997);
  }
  return t;
}

std::vector<float> read_device(UnifiedTensorPool& pool, tensor::Tensor* t) {
  const float* p = pool.device_ptr(t);
  return std::vector<float>(p, p + t->shape().elems());
}

TEST(PeerStaging, StageAndFetchRoundTripPreservesBytes) {
  Rig rig(/*real=*/true, /*async=*/false, /*budget=*/4ull << 20);
  tensor::Tensor* t = make_filled(rig.reg_a, rig.a, "act", 128);
  const std::vector<float> before = read_device(rig.a, t);
  const uint64_t bytes = t->bytes();

  // NVLink arrival (5us + bytes/25GB/s) beats the idle D2H uplink
  // (10us + bytes/8GB/s), so routing picks the peer.
  ASSERT_TRUE(rig.a.stage_to_peer(t));
  EXPECT_EQ(t->residency, Residency::kPeer);
  EXPECT_EQ(t->peer_device, 1);
  EXPECT_FALSE(t->gpu_handle.has_value());
  EXPECT_EQ(t->host_handle, 0u) << "staging must not touch the host pool";
  EXPECT_EQ(rig.group.guest_count(), 1u);
  EXPECT_EQ(rig.group.donated_in_use(1), bytes);
  EXPECT_EQ(rig.a.peer_stage_count(), 1u);
  EXPECT_EQ(rig.a.peer_stage_bytes(), bytes);
  EXPECT_EQ(rig.b.live_count(), 0u) << "guests are invisible to the host's tensor bookkeeping";
  EXPECT_GT(rig.cluster.link_busy_seconds(0, 1), 0.0);

  ASSERT_TRUE(rig.a.fetch(t));
  EXPECT_EQ(t->residency, Residency::kDevice);
  EXPECT_EQ(t->peer_device, -1);
  EXPECT_EQ(t->peer_handle, 0u);
  EXPECT_EQ(read_device(rig.a, t), before);
  EXPECT_EQ(rig.group.guest_count(), 0u);
  EXPECT_EQ(rig.group.donated_in_use(1), 0u);
  EXPECT_EQ(rig.a.peer_fetch_count(), 1u);
  // Nothing left in flight on either engine.
  EXPECT_EQ(rig.a.engine().pending_count(TransferDir::kP2P), 0u);
  EXPECT_EQ(rig.b.engine().pending_count(TransferDir::kP2P), 0u);
}

TEST(PeerStaging, RoutingFallsBackToHostWithoutBudgetOrSpace) {
  {
    // Budget smaller than the tensor: the router must refuse.
    Rig rig(true, false, /*budget=*/1024);
    tensor::Tensor* t = make_filled(rig.reg_a, rig.a, "act", 64);
    EXPECT_FALSE(rig.a.stage_to_peer(t));
    EXPECT_EQ(t->residency, Residency::kDevice);
    EXPECT_EQ(rig.group.guest_count(), 0u);
  }
  {
    // Peer pool full: budget alone is not an entitlement to space.
    Rig rig(true, false, /*budget=*/64ull << 20, /*cap_a=*/8ull << 20, /*cap_b=*/1ull << 20);
    make_filled(rig.reg_b, rig.b, "hog", 512);  // 1 MB: fills B's pool
    tensor::Tensor* t = make_filled(rig.reg_a, rig.a, "act", 64);
    EXPECT_FALSE(rig.a.stage_to_peer(t));
    EXPECT_EQ(t->residency, Residency::kDevice);
  }
}

TEST(PeerStaging, RoutingSkipsPeersUnderRecentPressure) {
  // Squeeze B until it evicts: a pool that just fought for its own memory
  // must not accept guests.
  Rig rig(true, false, /*budget=*/64ull << 20, /*cap_a=*/8ull << 20, /*cap_b=*/100 << 10);
  make_filled(rig.reg_b, rig.b, "b1", 128);
  make_filled(rig.reg_b, rig.b, "b2", 128);  // 64 KB each: evicts b1
  ASSERT_GT(rig.b.evictions(), 0u);
  ASSERT_TRUE(rig.b.under_pressure_now());

  tensor::Tensor* t = make_filled(rig.reg_a, rig.a, "act", 64);
  EXPECT_FALSE(rig.a.stage_to_peer(t));
  EXPECT_EQ(t->residency, Residency::kDevice);
}

TEST(PeerStaging, WindowedPressureDecaysWithAllocationTraffic) {
  Rig rig(true, false, /*budget=*/0, /*cap_a=*/100 << 10);
  make_filled(rig.reg_a, rig.a, "t1", 128);
  make_filled(rig.reg_a, rig.a, "t2", 128);  // 64 KB each: evicts t1
  ASSERT_GT(rig.a.evictions(), 0u);
  EXPECT_TRUE(rig.a.under_pressure_now());

  // Allocation traffic moves on without further evictions: the windowed
  // signal decays.
  tensor::Tensor* s = rig.reg_a.create("small", tensor::Shape{1, 1, 16, 16},
                                       tensor::TensorKind::kGrad);
  for (uint64_t i = 0; i <= UnifiedTensorPool::kPressureWindowAllocs; ++i) {
    rig.a.alloc_device(s);
    rig.a.free_tensor(s);
  }
  EXPECT_FALSE(rig.a.under_pressure_now());

  rig.a.reset_iteration_counters();
  EXPECT_FALSE(rig.a.under_pressure_now());
}

TEST(PeerStaging, HostSpillDegradesGuestToPlainHostResidency) {
  Rig rig(true, false, /*budget=*/4ull << 20);
  tensor::Tensor* t = make_filled(rig.reg_a, rig.a, "act", 128);
  const std::vector<float> before = read_device(rig.a, t);
  ASSERT_TRUE(rig.a.stage_to_peer(t));

  // B reclaims its donated space: the guest spills into A's host pool and
  // A's tensor degrades to the ordinary kHost state.
  ASSERT_TRUE(rig.group.spill_one_guest(rig.b));
  EXPECT_EQ(t->residency, Residency::kHost);
  EXPECT_NE(t->host_handle, 0u);
  EXPECT_EQ(t->peer_device, -1);
  EXPECT_EQ(rig.group.guest_count(), 0u);
  EXPECT_EQ(rig.group.donated_in_use(1), 0u);
  EXPECT_EQ(rig.a.peer_spill_count(), 1u);
  EXPECT_FALSE(rig.group.spill_one_guest(rig.b)) << "nothing left to spill";

  // The ordinary host fetch path takes over, bytes intact.
  ASSERT_TRUE(rig.a.fetch(t));
  EXPECT_EQ(read_device(rig.a, t), before);
}

TEST(PeerStaging, GuestSpillTriggersUnderHostAllocationPressure) {
  // B's own allocation reclaims the guest via the alloc_device hook (B has
  // no cache victims of its own, so the guest is the only source of space).
  Rig rig(true, false, /*budget=*/4ull << 20, /*cap_a=*/8ull << 20, /*cap_b=*/1ull << 20);
  tensor::Tensor* t = make_filled(rig.reg_a, rig.a, "act", 128);  // 64 KB
  const std::vector<float> before = read_device(rig.a, t);
  ASSERT_TRUE(rig.a.stage_to_peer(t));

  make_filled(rig.reg_b, rig.b, "own", 512);  // 1 MB: only fits if the guest spills
  EXPECT_EQ(t->residency, Residency::kHost);
  EXPECT_EQ(rig.a.peer_spill_count(), 1u);
  ASSERT_TRUE(rig.a.fetch(t));
  EXPECT_EQ(read_device(rig.a, t), before);
}

TEST(PeerStaging, AsyncFetchBackLandsOnTheDmaThreadAndSpillSkipsIt) {
  // Real + async: the same calls bring a tensor back from either tier. A
  // host stage-in rides A's H2D DMA worker; a peer fetch-back rides B's P2P
  // worker while the tensor stays kPeer, and a concurrent spill pass must
  // leave it alone.
  Rig rig(true, /*async=*/true, /*budget=*/4ull << 20);
  for (const Residency tier : {Residency::kHost, Residency::kPeer}) {
    const bool host = tier == Residency::kHost;
    SCOPED_TRACE(host ? "host tier" : "peer tier");
    tensor::Tensor* t = make_filled(rig.reg_a, rig.a, host ? "act_h" : "act_p", 128);
    const std::vector<float> before = read_device(rig.a, t);
    auto send_off = [&] {
      if (host) {
        rig.a.offload_to_host(t, /*async=*/false);
      } else {
        ASSERT_TRUE(rig.a.stage_to_peer(t));
      }
      ASSERT_EQ(t->residency, tier);
    };
    auto nothing_pending = [&] {
      for (UnifiedTensorPool* p : {&rig.a, &rig.b}) {
        for (TransferDir d : {TransferDir::kD2H, TransferDir::kH2D, TransferDir::kP2P}) {
          EXPECT_EQ(p->engine().pending_count(d), 0u);
        }
      }
    };

    // Ahead-of-use stage-in, then its landing.
    send_off();
    ASSERT_TRUE(rig.a.fetch_ahead(t));
    const TransferStats staged_a = rig.a.engine().stats();
    const TransferStats staged_b = rig.b.engine().stats();
    EXPECT_TRUE(rig.a.fetch_ahead(t)) << "a second stage-in of the same tensor is a no-op";
    EXPECT_EQ(rig.a.engine().stats().submitted_h2d, staged_a.submitted_h2d);
    EXPECT_EQ(rig.b.engine().stats().submitted_p2p, staged_b.submitted_p2p);
    if (host) {
      EXPECT_EQ(rig.a.engine().pending_count(TransferDir::kH2D), 1u);
    } else {
      EXPECT_EQ(rig.b.engine().pending_count(TransferDir::kP2P), 1u);
      EXPECT_EQ(t->residency, Residency::kPeer) << "kPeer until the landing retires";
      EXPECT_FALSE(rig.group.spill_one_guest(rig.b)) << "fetch-pending guests are not spillable";
    }
    rig.a.land(t);
    EXPECT_TRUE(t->on_device());
    EXPECT_EQ(read_device(rig.a, t), before);
    EXPECT_EQ(rig.group.guest_count(), 0u);
    nothing_pending();

    // A device-resident read is a cache hit and moves nothing.
    const uint64_t hits = rig.a.cache().hits();
    ASSERT_TRUE(rig.a.fetch(t));
    EXPECT_EQ(rig.a.cache().hits(), hits + 1);

    // On-demand fetch: the consumer needs the bytes now.
    send_off();
    const uint64_t misses = rig.a.cache().misses();
    ASSERT_TRUE(rig.a.fetch(t));
    EXPECT_TRUE(t->on_device());
    EXPECT_EQ(rig.a.cache().misses(), misses + 1);
    EXPECT_EQ(read_device(rig.a, t), before);
    nothing_pending();

    // Dying mid-flight: drop_tensor discards an in-flight stage-in cleanly
    // and releases every copy.
    send_off();
    ASSERT_TRUE(rig.a.fetch_ahead(t));
    rig.a.drop_tensor(t);
    EXPECT_EQ(t->residency, Residency::kDropped);
    EXPECT_FALSE(t->gpu_handle.has_value());
    EXPECT_EQ(t->host_handle, 0u);
    EXPECT_EQ(rig.group.guest_count(), 0u);
    EXPECT_EQ(rig.group.donated_in_use(1), 0u);
    EXPECT_FALSE(rig.a.fetch(t)) << "a dropped tensor has no copy to fetch";
    nothing_pending();
  }
  EXPECT_EQ(rig.a.host_pool().in_use(), 0u);
  EXPECT_EQ(rig.a.live_count(), 0u);
}

// ---------------------------------------------------------------------------
// Trainer integration: pool-constrained two-stage pipeline on NVLink.

/// Pool-constrained asymmetric pipeline: the explicit cut leaves stage 0 far
/// over its 768 KB pool (constant eviction traffic) while stage 1 has slack
/// to donate — the geometry the peer router exists for.
dist::HybridParallelConfig staged_pipeline_config(bool staging, uint64_t budget) {
  dist::HybridParallelConfig cfg;
  cfg.stages = 2;
  cfg.replicas = 1;
  cfg.microbatches = 4;
  cfg.global_batch = 32;
  cfg.boundaries = {9};
  cfg.cluster = sim::nvlink_cluster_spec(2);
  cfg.peer_staging = staging;
  cfg.peer_donation_bytes = budget;
  cfg.train.iterations = 4;
  cfg.train.lr = 0.05f;
  cfg.train.momentum = 0.9f;
  return cfg;
}

core::RuntimeOptions pressured_options() {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.allow_workspace = false;
  o.recompute = core::RecomputeMode::kNone;
  o.use_liveness = false;
  o.device_capacity = 3ull << 18;
  return o;
}

TEST(PeerStaging, TrainerNumericsAreBitIdenticalAcrossStagingModes) {
  auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
  auto run = [&](bool staging, uint64_t budget) {
    dist::HybridParallelTrainer pipe(factory, pressured_options(),
                                     staged_pipeline_config(staging, budget));
    auto rep = pipe.run();
    uint64_t staged = 0, stat_staged = 0;
    for (int s = 0; s < pipe.stages(); ++s) {
      staged += pipe.runtime(s, 0).tensor_pool().peer_stage_count();
      // Engines end every iteration drained.
      EXPECT_EQ(pipe.runtime(s, 0).transfer_engine().pending_count(TransferDir::kP2P), 0u);
    }
    for (const auto& it : rep.cell_stats) {
      for (const auto& row : it) stat_staged += row[0].peer_stage_count;
    }
    EXPECT_EQ(staged, stat_staged) << "IterationStats lost staging events";
    return std::tuple(rep.losses, staged, rep.stats.back().seconds);
  };
  auto [off_losses, off_staged, off_seconds] = run(false, 0);
  auto [zero_losses, zero_staged, zero_seconds] = run(true, 0);
  auto [on_losses, on_staged, on_seconds] = run(true, 1ull << 30);

  EXPECT_EQ(off_staged, 0u);
  EXPECT_EQ(zero_staged, 0u) << "zero donation budget must never stage";
  EXPECT_GT(on_staged, 0u) << "pressured pipeline never exercised staging";
  // Staging only re-routes copies: training results are bit-identical.
  EXPECT_EQ(off_losses, zero_losses);
  EXPECT_EQ(off_losses, on_losses);
  // Zero budget is the byte-identical no-op path: same virtual timeline too.
  EXPECT_EQ(off_seconds, zero_seconds);
  // The whole point: idle NVLink beats the backlogged D2H uplink.
  EXPECT_LT(on_seconds, off_seconds);
}

}  // namespace
