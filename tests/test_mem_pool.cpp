// Tests for the heap-based GPU memory pool (paper §3.2.1): first-fit,
// 1KB-block rounding, coalescing, fragmentation behaviour, invariants under
// randomized churn, and the device allocator's two charge policies (Table 2).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "bench/common.hpp"
#include "mem/gpu_allocator.hpp"
#include "mem/host_pool.hpp"
#include "mem/mem_pool.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace {

using namespace sn::mem;

TEST(MemoryPool, RoundsUpToBlockSize) {
  MemoryPool p(16 << 10, 1024);
  auto a = p.allocate(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bytes, 1024u);
  auto b = p.allocate(1025);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->bytes, 2048u);
}

TEST(MemoryPool, FirstFitLowestOffset) {
  MemoryPool p(8 << 10, 1024);
  auto a = p.allocate(2048);
  auto b = p.allocate(2048);
  auto c = p.allocate(2048);
  ASSERT_TRUE(a && b && c);
  p.deallocate(a->id);  // hole at offset 0
  auto d = p.allocate(1024);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->offset, 0u);  // first fit reuses the lowest hole
}

TEST(MemoryPool, FailsWhenNoFit) {
  MemoryPool p(4 << 10, 1024);
  auto a = p.allocate(3 << 10);
  ASSERT_TRUE(a);
  EXPECT_FALSE(p.allocate(2 << 10).has_value());
  EXPECT_EQ(p.stats().failed_allocs, 1u);
}

TEST(MemoryPool, FragmentationBlocksLargeAlloc) {
  MemoryPool p(8 << 10, 1024);
  auto a = p.allocate(2048);
  auto b = p.allocate(2048);
  auto c = p.allocate(2048);
  auto d = p.allocate(2048);
  ASSERT_TRUE(a && b && c && d);
  p.deallocate(a->id);
  p.deallocate(c->id);
  // 4 KB free total but split into two 2 KB holes.
  EXPECT_EQ(p.free_bytes(), 4096u);
  EXPECT_EQ(p.largest_free(), 2048u);
  EXPECT_FALSE(p.allocate(4096).has_value());
}

TEST(MemoryPool, CoalescesNeighbours) {
  MemoryPool p(8 << 10, 1024);
  auto a = p.allocate(2048);
  auto b = p.allocate(2048);
  auto c = p.allocate(2048);
  ASSERT_TRUE(a && b && c);
  p.deallocate(a->id);
  p.deallocate(c->id);
  p.deallocate(b->id);  // middle free must merge with both neighbours
  EXPECT_EQ(p.largest_free(), p.capacity());
  EXPECT_TRUE(p.validate());
}

TEST(MemoryPool, InUseAccounting) {
  MemoryPool p(64 << 10, 1024);
  auto a = p.allocate(10 << 10);
  EXPECT_EQ(p.in_use(), 10u << 10);
  auto b = p.allocate(5 << 10);
  EXPECT_EQ(p.in_use(), 15u << 10);
  p.deallocate(a->id);
  EXPECT_EQ(p.in_use(), 5u << 10);
  p.deallocate(b->id);
  EXPECT_EQ(p.in_use(), 0u);
  EXPECT_EQ(p.stats().peak_in_use, 15u << 10);
}

TEST(MemoryPool, BackedPoolYieldsWritablePointers) {
  MemoryPool p(16 << 10, 1024, /*backed=*/true);
  auto a = p.allocate(4096);
  ASSERT_TRUE(a);
  float* f = static_cast<float*>(p.ptr(a->id));
  ASSERT_NE(f, nullptr);
  f[0] = 42.0f;
  EXPECT_EQ(f[0], 42.0f);
}

TEST(MemoryPool, UnbackedPoolReturnsNull) {
  MemoryPool p(16 << 10, 1024, false);
  auto a = p.allocate(4096);
  ASSERT_TRUE(a);
  EXPECT_EQ(p.ptr(a->id), nullptr);
}

// Property sweep: random alloc/free churn preserves structural invariants,
// across several block sizes (the ablation dimension).
class PoolChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolChurnTest, InvariantsHoldUnderChurn) {
  const uint64_t block = GetParam();
  MemoryPool p(1 << 20, block);
  sn::util::Rng rng(block);
  std::vector<uint64_t> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.next_float() < 0.55f) {
      auto a = p.allocate(1 + rng.next_below(8192));
      if (a) live.push_back(a->id);
    } else {
      size_t i = rng.next_below(live.size());
      p.deallocate(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(p.validate()) << "at step " << step;
    }
  }
  for (uint64_t id : live) p.deallocate(id);
  EXPECT_TRUE(p.validate());
  EXPECT_EQ(p.in_use(), 0u);
  EXPECT_EQ(p.largest_free(), p.capacity());
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, PoolChurnTest,
                         ::testing::Values(256u, 1024u, 4096u, 65536u));

TEST(MemoryPool, BestFitPrefersTightestHole) {
  // Layout: a[0,4K) b[4K,5K) c[5K,9K) d[9K,10K) e[10K,16K); free a and d so
  // two holes exist: 4K at offset 0 and 1K at offset 9K.
  MemoryPool p(16 << 10, 1024, false, FitPolicy::kBestFit);
  auto a = p.allocate(4096);
  auto b = p.allocate(1024);
  auto c = p.allocate(4096);
  auto d = p.allocate(1024);
  auto e = p.allocate(6144);
  ASSERT_TRUE(a && b && c && d && e);
  p.deallocate(a->id);
  p.deallocate(d->id);
  // Request 1K: best fit takes the tight 1K hole at 9K; first fit would
  // have taken offset 0.
  auto f = p.allocate(1024);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->offset, 9u << 10);
  EXPECT_TRUE(p.validate());
}

TEST(MemoryPool, BestFitExactFitShortCircuits) {
  MemoryPool p(8 << 10, 1024, false, FitPolicy::kBestFit);
  auto a = p.allocate(2048);
  auto b = p.allocate(2048);
  auto c = p.allocate(2048);
  ASSERT_TRUE(a && b && c);
  p.deallocate(b->id);  // 2K hole in the middle
  auto d = p.allocate(2048);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->offset, b->offset);  // reused exactly
}

TEST(MemoryPool, FitPoliciesAgreeOnInUseAccounting) {
  for (FitPolicy fit : {FitPolicy::kFirstFit, FitPolicy::kBestFit}) {
    MemoryPool p(1 << 20, 1024, false, fit);
    sn::util::Rng rng(7);
    std::vector<uint64_t> live;
    for (int i = 0; i < 2000; ++i) {
      if (live.empty() || rng.next_float() < 0.5f) {
        if (auto a = p.allocate(1 + rng.next_below(4096))) live.push_back(a->id);
      } else {
        size_t j = rng.next_below(live.size());
        p.deallocate(live[j]);
        live[j] = live.back();
        live.pop_back();
      }
    }
    EXPECT_TRUE(p.validate());
    for (uint64_t id : live) p.deallocate(id);
    EXPECT_EQ(p.in_use(), 0u);
  }
}

TEST(GpuAllocator, PoolIsFasterThanNative) {
  sn::sim::Machine m1(sn::sim::k40c_spec());
  sn::sim::Machine m2(sn::sim::k40c_spec());
  GpuAllocator nat(m1, 1 << 20, /*native=*/true);
  GpuAllocator pool(m2, 1 << 20, /*native=*/false);
  for (int i = 0; i < 100; ++i) {
    auto a = nat.allocate(4096);
    ASSERT_TRUE(a);
    nat.deallocate(*a);
    auto b = pool.allocate(4096);
    ASSERT_TRUE(b);
    pool.deallocate(*b);
  }
  EXPECT_GT(m1.now(), 50.0 * m2.now());  // cudaMalloc model is orders slower
  EXPECT_EQ(m1.counters().native_mallocs, 100u);
  EXPECT_EQ(m1.counters().native_frees, 100u);
  EXPECT_EQ(m2.counters().native_mallocs, 0u);
  EXPECT_NEAR(m2.now(), 200 * GpuAllocator::kPoolOpSeconds, 1e-12);
}

TEST(GpuAllocator, CapacityEnforced) {
  for (bool native : {false, true}) {
    sn::sim::Machine m(sn::sim::k40c_spec());
    GpuAllocator a(m, 1 << 20, native);
    auto h = a.allocate(1 << 20);
    ASSERT_TRUE(h);
    EXPECT_FALSE(a.allocate(1024).has_value());
    a.deallocate(*h);
    EXPECT_TRUE(a.allocate(1024).has_value());
  }
}

TEST(GpuAllocator, BlockSizeFollowsTheChargePolicy) {
  sn::sim::Machine m(sn::sim::k40c_spec());
  GpuAllocator nat(m, 1 << 20, /*native=*/true);
  GpuAllocator pool(m, 1 << 20, /*native=*/false);
  ASSERT_TRUE(nat.allocate(1));
  ASSERT_TRUE(pool.allocate(1));
  EXPECT_EQ(nat.in_use(), GpuAllocator::kNativeBlockBytes);
  EXPECT_EQ(pool.in_use(), MemoryPool::kDefaultBlockBytes);
}

TEST(GpuAllocator, PtrResolvesLiveHandlesOnly) {
  sn::sim::Machine m(sn::sim::k40c_spec());
  GpuAllocator a(m, 8 << 10, /*native=*/false, /*backed=*/true);
  auto h1 = a.allocate(1024);
  auto h2 = a.allocate(1024);
  ASSERT_TRUE(h1 && h2);
  auto* p1 = static_cast<std::byte*>(a.ptr(*h1));
  auto* p2 = static_cast<std::byte*>(a.ptr(*h2));
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p2 - p1, 1024);  // first fit: adjacent blocks
  a.deallocate(*h1);
  EXPECT_EQ(a.ptr(*h1), nullptr);
  EXPECT_EQ(a.ptr(*h2), p2);
}

TEST(GpuAllocator, PeakIsTheHighWaterMarkSinceTheLastReset) {
  sn::sim::Machine m(sn::sim::k40c_spec());
  GpuAllocator a(m, 1 << 20, /*native=*/false);
  auto ha = a.allocate(3 << 10);
  auto hb = a.allocate(5 << 10);
  ASSERT_TRUE(ha && hb);
  a.deallocate(*hb);
  EXPECT_EQ(a.in_use(), 3u << 10);
  EXPECT_EQ(a.peak_in_use(), 8u << 10);  // A + B, although B is gone
  a.reset_peak();
  EXPECT_EQ(a.peak_in_use(), a.in_use());
  auto hc = a.allocate(1 << 10);
  ASSERT_TRUE(hc);
  EXPECT_EQ(a.peak_in_use(), 4u << 10);
}

TEST(GpuAllocator, Table2PoolBeatsNativeMoreOnDeeperNets) {
  // Table 2's claim over both charge policies, in the bench's column order:
  // the pool wins on every net, and its speedup never drops as the nets get
  // deeper and more non-linear (more tensors allocated per iteration).
  struct Cfg {
    const char* name;
    int batch;
  } cfgs[] = {{"AlexNet", 128}, {"VGG16", 16},     {"InceptionV4", 16},
              {"ResNet50", 16}, {"ResNet101", 16}, {"ResNet152", 16}};
  double prev_speedup = 0.0;
  for (const auto& cfg : cfgs) {
    sn::core::RuntimeOptions pooled = sn::core::make_policy(sn::core::PolicyPreset::kSuperNeurons);
    pooled.device_capacity = 96ull << 30;
    auto native = pooled;
    pooled.use_pool_allocator = true;
    native.use_pool_allocator = false;
    auto net_a = sn::bench::build_network(cfg.name, cfg.batch);
    auto net_b = sn::bench::build_network(cfg.name, cfg.batch);
    const double pool_ips = sn::bench::sim_img_per_s(*net_a, pooled);
    const double native_ips = sn::bench::sim_img_per_s(*net_b, native);
    EXPECT_GT(pool_ips, native_ips) << cfg.name;
    const double speedup = pool_ips / native_ips;
    EXPECT_GE(speedup, prev_speedup) << cfg.name;
    prev_speedup = speedup;
  }
}

TEST(HostPool, AccountingAndBackedBuffers) {
  HostPool hp(1 << 20, /*pinned=*/true, /*backed=*/true);
  uint64_t a = hp.allocate(1000);
  ASSERT_NE(a, 0u);
  EXPECT_EQ(hp.in_use(), 1000u);
  ASSERT_NE(hp.ptr(a), nullptr);
  uint64_t b = hp.allocate(1 << 20);
  EXPECT_EQ(b, 0u);  // over capacity
  hp.deallocate(a);
  EXPECT_EQ(hp.in_use(), 0u);
  EXPECT_EQ(hp.peak_in_use(), 1000u);
}

}  // namespace
