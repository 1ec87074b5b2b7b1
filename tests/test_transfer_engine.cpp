// TransferEngine unit tests: tag-based submit/poll/wait semantics on both
// backends, virtual-time gating, per-direction DMA workers, FIFO order on
// every stream kind, P2P stream isolation, and backend selection.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/transfer_engine.hpp"
#include "sim/cluster.hpp"

namespace {

using namespace sn;
using core::DmaTransferEngine;
using core::TransferDir;
using core::TransferEngine;

std::vector<float> pattern(size_t n, float base) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), base);
  return v;
}

TEST(TransferEngine, SubmitPendsUntilVirtualEventCompletes) {
  sim::Machine m(sim::k40c_spec());
  TransferEngine eng(m, /*pinned=*/true);
  eng.submit(TransferDir::kD2H, 7, nullptr, nullptr, 1 << 20);
  EXPECT_TRUE(eng.pending(TransferDir::kD2H, 7));
  // The copy takes virtual time; at t=0 it cannot have completed.
  EXPECT_FALSE(eng.try_retire(TransferDir::kD2H, 7));
  EXPECT_TRUE(eng.pending(TransferDir::kD2H, 7));
  // Enough compute to hide the copy: now it retires without a wait.
  m.run_compute(1.0);
  EXPECT_TRUE(eng.try_retire(TransferDir::kD2H, 7));
  EXPECT_FALSE(eng.pending(TransferDir::kD2H, 7));
  auto s = eng.stats();
  EXPECT_EQ(s.submitted_d2h, 1u);
  EXPECT_EQ(s.completed_d2h, 1u);
}

TEST(TransferEngine, WaitStallsTheComputeStream) {
  sim::Machine m(sim::k40c_spec());
  TransferEngine eng(m, /*pinned=*/true);
  eng.submit(TransferDir::kH2D, 3, nullptr, nullptr, 8 << 20);
  const double stall0 = m.counters().stall_time;
  eng.wait(TransferDir::kH2D, 3);
  EXPECT_GT(m.counters().stall_time, stall0);
  EXPECT_FALSE(eng.pending(TransferDir::kH2D, 3));
  // Waiting again on a retired tag is a no-op.
  const double stall1 = m.counters().stall_time;
  eng.wait(TransferDir::kH2D, 3);
  EXPECT_EQ(m.counters().stall_time, stall1);
}

TEST(TransferEngine, TryRetireOnUnknownTagIsTrue) {
  sim::Machine m(sim::k40c_spec());
  TransferEngine eng(m, true);
  EXPECT_TRUE(eng.try_retire(TransferDir::kD2H, 99));
  EXPECT_TRUE(eng.try_retire(TransferDir::kH2D, 99));
}

TEST(TransferEngine, DiscardRetiresWithoutVirtualStall) {
  sim::Machine m(sim::k40c_spec());
  TransferEngine eng(m, true);
  eng.submit(TransferDir::kD2H, 1, nullptr, nullptr, 64 << 20);
  const double stall0 = m.counters().stall_time;
  eng.discard(TransferDir::kD2H, 1);
  EXPECT_EQ(m.counters().stall_time, stall0);
  EXPECT_FALSE(eng.pending(TransferDir::kD2H, 1));
  // A thrown-away transfer is not a completion.
  EXPECT_EQ(eng.stats().completed_d2h, 0u);
  EXPECT_EQ(eng.stats().discarded_d2h, 1u);
}

TEST(TransferEngine, InlineBackendMovesBytesAtSubmit) {
  sim::Machine m(sim::k40c_spec());
  TransferEngine eng(m, true);
  auto src = pattern(1024, 1.0f);
  std::vector<float> dst(1024, 0.0f);
  eng.submit(TransferDir::kD2H, 5, src.data(), dst.data(), src.size() * sizeof(float));
  // Synchronous backend: the bytes are there before any wait.
  EXPECT_EQ(dst, src);
  EXPECT_EQ(eng.stats().inline_copies, 1u);
  EXPECT_EQ(eng.stats().dma_copies, 0u);
  eng.drain();
}

TEST(TransferEngine, DrainRetiresEverythingBothDirections) {
  sim::Machine m(sim::k40c_spec());
  TransferEngine eng(m, true);
  for (uint64_t tag = 0; tag < 4; ++tag) {
    eng.submit(TransferDir::kD2H, tag, nullptr, nullptr, 1 << 20);
    eng.submit(TransferDir::kH2D, tag, nullptr, nullptr, 1 << 20);
  }
  EXPECT_EQ(eng.pending_count(TransferDir::kD2H), 4u);
  EXPECT_EQ(eng.pending_count(TransferDir::kH2D), 4u);
  eng.drain();
  EXPECT_EQ(eng.pending_count(TransferDir::kD2H), 0u);
  EXPECT_EQ(eng.pending_count(TransferDir::kH2D), 0u);
  auto s = eng.stats();
  EXPECT_EQ(s.completed_d2h, 4u);
  EXPECT_EQ(s.completed_h2d, 4u);
}

TEST(DmaTransferEngine, CopiesRunOnTheDmaWorker) {
  sim::Machine m(sim::k40c_spec());
  DmaTransferEngine eng(m, true);
  auto src = pattern(4096, 10.0f);
  std::vector<float> dst(4096, 0.0f);
  eng.submit(TransferDir::kD2H, 11, src.data(), dst.data(), src.size() * sizeof(float));
  eng.wait(TransferDir::kD2H, 11);  // ensure_landed: bytes must be there now
  EXPECT_EQ(dst, src);
  auto s = eng.stats();
  EXPECT_EQ(s.dma_copies, 1u);
  EXPECT_EQ(s.dma_copies_d2h, 1u);
  EXPECT_EQ(s.dma_copies_h2d, 0u);
  EXPECT_EQ(s.inline_copies, 0u);
}

TEST(DmaTransferEngine, ConcurrentDirectionsDrainOnSeparateWorkers) {
  sim::Machine m(sim::k40c_spec());
  DmaTransferEngine eng(m, true);
  const size_t n = (1 << 20) / sizeof(float);
  auto out_src = pattern(n, 1.0f);
  auto in_src = pattern(n, 1000.0f);
  std::vector<float> out_dst(n, 0.0f), in_dst(n, 0.0f);
  // Offload and prefetch in flight simultaneously.
  eng.submit(TransferDir::kD2H, 1, out_src.data(), out_dst.data(), n * sizeof(float));
  eng.submit(TransferDir::kH2D, 2, in_src.data(), in_dst.data(), n * sizeof(float));
  eng.drain();
  EXPECT_EQ(out_dst, out_src);
  EXPECT_EQ(in_dst, in_src);
  auto s = eng.stats();
  // One copy per direction, each on its own stream's worker.
  EXPECT_EQ(s.dma_copies_d2h, 1u);
  EXPECT_EQ(s.dma_copies_h2d, 1u);
  EXPECT_EQ(s.dma_copies, 2u);
}

TEST(DmaTransferEngine, ScheduleIsBitIdenticalToTheSynchronousEngine) {
  // The virtual-time schedule (completion events, stream occupancy, stalls)
  // must not depend on the backend: the multi-stream DMA engine merely moves
  // the same bytes on the wall clock.
  sim::Machine m_sync(sim::k40c_spec());
  sim::Machine m_async(sim::k40c_spec());
  TransferEngine sync_eng(m_sync, true);
  DmaTransferEngine async_eng(m_async, true);

  auto drive = [](TransferEngine& eng, sim::Machine& m, std::vector<double>& events) {
    for (uint64_t tag = 0; tag < 6; ++tag) {
      TransferDir dir = tag % 2 ? TransferDir::kH2D : TransferDir::kD2H;
      sim::Event e = eng.submit(dir, tag, nullptr, nullptr, (tag + 1) << 20);
      events.push_back(e.done_at);
      m.run_compute(1e-4);
      eng.try_retire(dir, tag);
    }
    eng.drain();
    events.push_back(m.now());
  };
  std::vector<double> sync_events, async_events;
  drive(sync_eng, m_sync, sync_events);
  drive(async_eng, m_async, async_events);
  ASSERT_EQ(sync_events.size(), async_events.size());
  for (size_t i = 0; i < sync_events.size(); ++i) {
    EXPECT_DOUBLE_EQ(sync_events[i], async_events[i]) << i;
  }
  EXPECT_DOUBLE_EQ(m_sync.counters().stall_time, m_async.counters().stall_time);
  EXPECT_DOUBLE_EQ(m_sync.counters().seconds_d2h, m_async.counters().seconds_d2h);
  EXPECT_DOUBLE_EQ(m_sync.counters().seconds_h2d, m_async.counters().seconds_h2d);
}

TEST(DmaTransferEngine, PollFromComputeThreadWhileBothWorkersDrain) {
  sim::Machine m(sim::k40c_spec());
  DmaTransferEngine eng(m, true);
  constexpr int kPerDir = 8;
  const size_t n = 64 * 1024;
  std::vector<std::vector<float>> srcs, dsts;
  for (int i = 0; i < 2 * kPerDir; ++i) {
    srcs.push_back(pattern(n, static_cast<float>(i)));
    dsts.emplace_back(n, 0.0f);
  }
  for (int i = 0; i < kPerDir; ++i) {
    eng.submit(TransferDir::kD2H, static_cast<uint64_t>(i), srcs[i].data(), dsts[i].data(),
               n * sizeof(float));
    eng.submit(TransferDir::kH2D, static_cast<uint64_t>(i), srcs[kPerDir + i].data(),
               dsts[kPerDir + i].data(), n * sizeof(float));
  }
  // Poll from the compute thread while both workers drain; virtual compute
  // slices gate the retires deterministically.
  int guard = 0;
  while (eng.pending_count(TransferDir::kD2H) + eng.pending_count(TransferDir::kH2D) > 0) {
    m.run_compute(1e-3);
    for (int i = 0; i < kPerDir; ++i) {
      eng.try_retire(TransferDir::kD2H, static_cast<uint64_t>(i));
      eng.try_retire(TransferDir::kH2D, static_cast<uint64_t>(i));
    }
    ASSERT_LT(++guard, 1000) << "transfers never retired";
  }
  for (int i = 0; i < 2 * kPerDir; ++i) EXPECT_EQ(dsts[i], srcs[i]) << i;
  auto s = eng.stats();
  EXPECT_EQ(s.completed_d2h, static_cast<uint64_t>(kPerDir));
  EXPECT_EQ(s.completed_h2d, static_cast<uint64_t>(kPerDir));
}

TEST(DmaTransferEngine, P2PRunsOnPerLinkWorkersIsolatedFromPcieStreams) {
  sim::Cluster cluster(sim::pcie_cluster_spec(3));
  DmaTransferEngine eng(cluster.machine(0), true);
  const size_t n = 4096;
  auto d2h_src = pattern(n, 1.0f);
  auto p2p_src1 = pattern(n, 100.0f);
  auto p2p_src2 = pattern(n, 200.0f);
  std::vector<float> d2h_dst(n, 0.0f), p2p_dst1(n, 0.0f), p2p_dst2(n, 0.0f);
  // A big local offload must not delay the P2P hops in virtual time: they
  // ride their own per-link streams (and, physically, per-link workers).
  sim::Event big = eng.submit(TransferDir::kD2H, 1, d2h_src.data(), d2h_dst.data(),
                              n * sizeof(float));
  sim::Event hop1 = eng.submit_p2p(2, p2p_src1.data(), p2p_dst1.data(), n * sizeof(float),
                                   /*peer=*/1, /*not_before=*/0.0);
  sim::Event hop2 = eng.submit_p2p(3, p2p_src2.data(), p2p_dst2.data(), n * sizeof(float),
                                   /*peer=*/2, /*not_before=*/0.0);
  // Distinct links: the two hops do not queue on each other either, and
  // neither queues behind the D2H stream — each completes in exactly one
  // unqueued link transfer.
  EXPECT_DOUBLE_EQ(hop1.done_at, cluster.p2p_seconds(n * sizeof(float)));
  EXPECT_DOUBLE_EQ(hop1.done_at, hop2.done_at);
  (void)big;
  eng.drain();
  EXPECT_EQ(d2h_dst, d2h_src);
  EXPECT_EQ(p2p_dst1, p2p_src1);
  EXPECT_EQ(p2p_dst2, p2p_src2);
  auto s = eng.stats();
  EXPECT_EQ(s.dma_copies_p2p, 2u);
  EXPECT_EQ(s.dma_copies_d2h, 1u);
  EXPECT_EQ(s.completed_p2p, 2u);
}

TEST(DmaTransferEngine, RaggedLargeCopyLandsByteExact) {
  // 1 MiB plus a ragged tail of 13 floats, copied by the H2D worker.
  sim::Machine m(sim::k40c_spec());
  DmaTransferEngine eng(m, true);
  const size_t n = (1 << 20) / sizeof(float) + 13;
  auto src = pattern(n, 0.5f);
  std::vector<float> dst(n, 0.0f);
  eng.submit(TransferDir::kH2D, 2, src.data(), dst.data(), n * sizeof(float));
  eng.wait(TransferDir::kH2D, 2);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(eng.stats().dma_copies_h2d, 1u);
}

TEST(DmaTransferEngine, FifoOrderAcrossManyJobsOnOneStream) {
  // Chain: job k copies buf[k] -> buf[k+1]. Jobs on one stream run FIFO (and
  // a job only starts once its predecessor fully drained), so after waiting
  // the last job the first pattern has propagated to the end. Checked on
  // each stream kind: the two PCIe directions and a P2P link worker.
  constexpr int kJobs = 16;
  for (TransferDir dir : {TransferDir::kD2H, TransferDir::kH2D, TransferDir::kP2P}) {
    SCOPED_TRACE(static_cast<int>(dir));
    sim::Cluster cluster(sim::pcie_cluster_spec(2));
    DmaTransferEngine eng(cluster.machine(0), true);
    std::vector<std::vector<float>> bufs(kJobs + 1, std::vector<float>(256, 0.0f));
    bufs[0] = pattern(256, 42.0f);
    for (int k = 0; k < kJobs; ++k) {
      const auto tag = static_cast<uint64_t>(k);
      if (dir == TransferDir::kP2P) {
        eng.submit_p2p(tag, bufs[k].data(), bufs[k + 1].data(), 256 * sizeof(float),
                       /*peer=*/1, /*not_before=*/0.0);
      } else {
        eng.submit(dir, tag, bufs[k].data(), bufs[k + 1].data(), 256 * sizeof(float));
      }
    }
    eng.wait(dir, kJobs - 1);
    EXPECT_EQ(bufs[kJobs], bufs[0]);
    eng.drain();
    const auto s = eng.stats();
    EXPECT_EQ(s.dma_copies, static_cast<uint64_t>(kJobs));
    const uint64_t on_stream = dir == TransferDir::kD2H   ? s.dma_copies_d2h
                               : dir == TransferDir::kH2D ? s.dma_copies_h2d
                                                          : s.dma_copies_p2p;
    EXPECT_EQ(on_stream, static_cast<uint64_t>(kJobs));
  }
}

TEST(DmaTransferEngine, P2PRaggedLargeCopyLandsByteExact) {
  // A bulk activation stream over a link worker, ragged tail included.
  sim::Cluster cluster(sim::pcie_cluster_spec(2));
  DmaTransferEngine eng(cluster.machine(0), true);
  const size_t n = (1 << 20) / sizeof(float) + 13;
  auto src = pattern(n, 2.5f);
  std::vector<float> dst(n, 0.0f);
  eng.submit_p2p(7, src.data(), dst.data(), n * sizeof(float), /*peer=*/1, /*not_before=*/0.0);
  eng.wait(TransferDir::kP2P, 7);
  EXPECT_EQ(dst, src);
  auto s = eng.stats();
  EXPECT_EQ(s.dma_copies_p2p, 1u);
  EXPECT_EQ(s.dma_copies, 1u);  // PCIe workers idle
}

TEST(DmaTransferEngine, P2PCopiesIsolatedAcrossLinks) {
  // Concurrent bulk streams on distinct links each run on their own link
  // worker — bytes must not interleave across links, and the virtual events
  // stay one unqueued link transfer each.
  sim::Cluster cluster(sim::pcie_cluster_spec(3));
  DmaTransferEngine eng(cluster.machine(0), true);
  const size_t n = 64 * 1024;
  auto src1 = pattern(n, 10.0f);
  auto src2 = pattern(n, 90.0f);
  std::vector<float> dst1(n, 0.0f), dst2(n, 0.0f);
  sim::Event e1 = eng.submit_p2p(1, src1.data(), dst1.data(), n * sizeof(float), 1, 0.0);
  sim::Event e2 = eng.submit_p2p(2, src2.data(), dst2.data(), n * sizeof(float), 2, 0.0);
  EXPECT_DOUBLE_EQ(e1.done_at, cluster.p2p_seconds(n * sizeof(float)));
  EXPECT_DOUBLE_EQ(e1.done_at, e2.done_at);
  eng.drain();
  EXPECT_EQ(dst1, src1);
  EXPECT_EQ(dst2, src2);
  EXPECT_EQ(eng.stats().dma_copies_p2p, 2u);
}

TEST(TransferEngine, AwaitLandingDeliversBytesWithoutRetiringOrStalling) {
  // The pipeline receiver's physical gate: bytes are guaranteed present,
  // but the transfer stays pending (the virtual event still governs
  // scheduling) and the sender's compute stream is not stalled.
  sim::Cluster cluster(sim::pcie_cluster_spec(2));
  DmaTransferEngine eng(cluster.machine(0), true);
  const size_t n = 4096;
  auto src = pattern(n, 3.0f);
  std::vector<float> dst(n, 0.0f);
  eng.submit_p2p(5, src.data(), dst.data(), n * sizeof(float), /*peer=*/1, /*not_before=*/0.0);
  const double stall0 = cluster.machine(0).counters().stall_time;
  eng.await_landing(TransferDir::kP2P, 5);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(cluster.machine(0).counters().stall_time, stall0);
  EXPECT_TRUE(eng.pending(TransferDir::kP2P, 5));
  EXPECT_EQ(eng.stats().completed_p2p, 0u);
  // Unknown tags are a no-op.
  eng.await_landing(TransferDir::kD2H, 999);
  // Once virtual time passes the event, the normal retire path completes it.
  cluster.machine(0).run_compute(1.0);
  EXPECT_TRUE(eng.try_retire(TransferDir::kP2P, 5));
  EXPECT_EQ(eng.stats().completed_p2p, 1u);
}

TEST(MakeTransferEngine, SelectsBackendFromMode) {
  sim::Machine m(sim::k40c_spec());
  auto make = [&](bool real, bool async) {
    return core::make_transfer_engine(m, /*pinned=*/true, real, async);
  };
  EXPECT_FALSE(make(/*real=*/false, /*async=*/true)->async_backend());
  EXPECT_FALSE(make(/*real=*/true, /*async=*/false)->async_backend());
  EXPECT_TRUE(make(/*real=*/true, /*async=*/true)->async_backend());
}

}  // namespace
