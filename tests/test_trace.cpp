// obs tracing tests: the recording hooks, the analyzer's reconciliation
// contract against IterationStats / machine counters, flow pairing,
// deterministic export, metrics pinning, and — load-bearing under TSan —
// concurrent DMA-worker wall-span recording.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/transfer_engine.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analyzer.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;

core::RuntimeOptions parity_options() {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  o.allow_workspace = false;
  return o;
}

train::TrainConfig train_config(int iterations) {
  train::TrainConfig tc;
  tc.iterations = iterations;
  tc.lr = 0.05f;
  tc.momentum = 0.9f;
  return tc;
}

dist::HybridParallelConfig hybrid_config(int stages, int replicas, int microbatches,
                                         int global_batch, int iterations) {
  dist::HybridParallelConfig cfg;
  cfg.stages = stages;
  cfg.replicas = replicas;
  cfg.microbatches = microbatches;
  cfg.global_batch = global_batch;
  cfg.cluster = sim::pcie_cluster_spec(stages * replicas);
  cfg.train = train_config(iterations);
  return cfg;
}

/// Sum span durations of one kind (optionally one stall source) per device.
double sum_spans(const std::vector<obs::TraceSpan>& spans, obs::SpanKind kind,
                 obs::StallSource src = obs::StallSource::kNone) {
  double s = 0.0;
  for (const auto& sp : spans) {
    if (sp.kind != kind) continue;
    if (kind == obs::SpanKind::kStall && src != obs::StallSource::kNone && sp.stall != src) {
      continue;
    }
    s += sp.vend - sp.vbegin;
  }
  return s;
}

}  // namespace

// --- recorder mechanics -----------------------------------------------------

TEST(TraceRecorder, RingEvictsOldestAndCountsDrops) {
  obs::TraceRecorder rec(/*capacity=*/8);  // 8 is also the enforced floor
  rec.set_ids(0, -1, -1);
  for (int i = 0; i < 12; ++i) {
    rec.record_compute(static_cast<double>(i), static_cast<double>(i) + 0.5);
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(rec.dropped(), 4u);
  // Oldest-first: the survivors are the last eight records.
  EXPECT_DOUBLE_EQ(spans.front().vbegin, 4.0);
  EXPECT_DOUBLE_EQ(spans.back().vbegin, 11.0);
}

TEST(TraceRecorder, FullWallRingCountsRefusedSpansAsDropped) {
  // DMA workers record into a separate wall ring with the same cap; a span
  // it refuses must show in dropped() or a truncated-ring audit passes.
  obs::TraceRecorder rec(/*capacity=*/8);
  for (int i = 0; i < 12; ++i) {
    rec.record_wall_chunk(0, static_cast<uint64_t>(i), 64, static_cast<double>(i),
                          static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(rec.wall_chunks().size(), 8u);
  EXPECT_EQ(rec.dropped(), 4u);
  rec.clear();
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, ZeroDurationWaitRecordsOnlyWhenConsumingFlow) {
  obs::TraceRecorder rec;
  rec.set_ids(0, -1, -1);
  rec.record_wait(1.0, 1.0);  // no time passed, no flow: dropped
  EXPECT_TRUE(rec.spans().empty());
  rec.set_stall_context(obs::StallSource::kPipelineRecv, "recv_act", "steady", 3,
                        obs::flow_id_p2p(7, 0));
  rec.record_wait(2.0, 2.0);  // zero-duration but flow-consuming: recorded
  rec.clear_stall_context();
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kStall);
  EXPECT_EQ(spans[0].stall, obs::StallSource::kPipelineRecv);
  EXPECT_EQ(spans[0].flow_in, obs::flow_id_p2p(7, 0));
  EXPECT_EQ(spans[0].microbatch, 3);
  EXPECT_EQ(spans[0].phase, "steady");
  // The flow is one-shot: a second zero-duration wait records nothing.
  rec.record_wait(3.0, 3.0);
  EXPECT_EQ(rec.spans().size(), 1u);
}

TEST(TraceRecorder, FlowIdNamespacesAreDisjoint) {
  // P2P ids live below the collective high bit, so a trainer tag can never
  // collide with a bucket flow.
  EXPECT_NE(obs::flow_id_p2p(5, 2), obs::flow_id_collective(5, 2));
  EXPECT_NE(obs::flow_id_p2p(1, 0), obs::flow_id_p2p(1, 1));
  EXPECT_NE(obs::flow_id_collective(0, 0), obs::flow_id_collective(0, 1));
}

// --- single-device reconciliation -------------------------------------------

TEST(TraceAnalyzer, SingleDeviceSpansAccountForEveryComputeStreamSecond) {
  // Capacity squeezed so offload/prefetch traffic flows and real stalls
  // occur; every compute-stream advance must land in exactly one span.
  auto net = graph::build_tiny_linear(8);
  core::RuntimeOptions o = parity_options();
  core::Runtime rt(*net, o);

  obs::TraceSession session;
  obs::TraceRecorder& rec = session.recorder_for(0);
  rec.set_ids(0, -1, -1);
  rt.machine().set_trace(&rec);
  const auto c0 = rt.machine().counters();
  const double t0 = rt.machine().now();

  core::IterationStats st = rt.train_iteration(nullptr, nullptr);

  const auto c1 = rt.machine().counters();
  const auto spans = rec.spans();
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kCompute), c1.compute_time - c0.compute_time,
              1e-12);
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kAlloc), c1.malloc_time - c0.malloc_time, 1e-12);
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kStall), c1.stall_time - c0.stall_time, 1e-12);
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kD2H), c1.seconds_d2h - c0.seconds_d2h, 1e-12);
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kH2D), c1.seconds_h2d - c0.seconds_h2d, 1e-12);
  // IterationStats' own scalars are the same quantities.
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kStall), st.stall_seconds, 1e-12);
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kAlloc), st.malloc_seconds, 1e-12);
  // Completeness: compute + alloc + stall == total clock motion.
  const double motion = rt.machine().now() - t0;
  EXPECT_NEAR(sum_spans(spans, obs::SpanKind::kCompute) +
                  sum_spans(spans, obs::SpanKind::kAlloc) +
                  sum_spans(spans, obs::SpanKind::kStall),
              motion, 1e-12);
  rt.machine().set_trace(nullptr);
}

// --- pipeline / hybrid reconciliation ---------------------------------------

TEST(TraceAnalyzer, PipelineBubbleReconcilesWithIterationStats) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer pipe(factory, parity_options(), hybrid_config(2, 1, 4, 8, 2));
  obs::TraceSession session;
  pipe.attach_trace(&session);
  auto rep = pipe.run();
  pipe.attach_trace(nullptr);

  obs::TraceAnalyzer an(session);
  const obs::Attribution total = an.total();
  double bubble = 0.0, fill = 0.0, steady = 0.0, drain = 0.0;
  for (const auto& st : rep.stats) {
    bubble += st.bubble_seconds;
    fill += st.bubble_fill_seconds;
    steady += st.bubble_steady_seconds;
    drain += st.bubble_drain_seconds;
  }
  EXPECT_NEAR(total.bubble_seconds, bubble, 1e-12);
  EXPECT_NEAR(total.bubble_fill_seconds, fill, 1e-12);
  EXPECT_NEAR(total.bubble_steady_seconds, steady, 1e-12);
  EXPECT_NEAR(total.bubble_drain_seconds, drain, 1e-12);
  EXPECT_TRUE(an.unmatched_flows().empty());
  EXPECT_GT(an.flows_produced(), 0u);
}

TEST(TraceAnalyzer, HybridGridReconcilesAndPairsEveryFlow) {
  // The acceptance geometry: 2x2 grid, 4 microbatches, 1F1B bucketed
  // all-reduce — P2P flows AND collective flows in one trace.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer hyb(factory, parity_options(),
                                  hybrid_config(2, 2, 4, 8, 2));
  obs::TraceSession session;
  hyb.attach_trace(&session);
  auto rep = hyb.run();
  hyb.attach_trace(nullptr);

  obs::TraceAnalyzer an(session);
  ASSERT_EQ(session.devices().size(), 4u);
  EXPECT_TRUE(an.unmatched_flows().empty());
  EXPECT_EQ(an.flows_produced(), an.flows_consumed());
  EXPECT_GT(an.flows_produced(), 0u);

  double bubble = 0.0;
  for (const auto& st : rep.stats) bubble += st.bubble_seconds;
  EXPECT_NEAR(an.total().bubble_seconds, bubble, 1e-12);
  // Exposed collective anchors on the LAST drain-end marker, so it matches
  // the final iteration's scalar exactly.
  EXPECT_NEAR(an.exposed_collective_seconds(), rep.stats.back().allreduce_exposed_seconds,
              1e-12);
  EXPECT_GT(an.drain_end(), 0.0);

  // The critical path must be non-empty and strictly time-ordered.
  const auto path = an.critical_path();
  ASSERT_FALSE(path.empty());
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(path[i - 1].vbegin, path[i].vbegin + 1e-12);
  }
}

TEST(TraceAnalyzer, BucketedGridExposesCollectivePastTheLastBackward) {
  // The drain ends at the last backward, so hop sends a bucket issue
  // charges to its sender afterwards count as exposed collective time. On a
  // VGG16 2 x 2 x 4 grid the buckets cannot all hide behind the drain: the
  // trainer reads a positive exposure, and the span algebra reproduces it.
  auto factory = [](int batch) { return graph::build_vgg(16, batch); };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  auto cfg = hybrid_config(2, 2, 4, 32, 1);
  cfg.cluster = sim::nvlink_cluster_spec(4);
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  ASSERT_GT(hyb.buckets(1), 1);  // the FC stage
  obs::TraceSession session;
  hyb.attach_trace(&session);
  auto rep = hyb.run();
  hyb.attach_trace(nullptr);

  obs::TraceAnalyzer an(session);
  EXPECT_GT(rep.stats.back().allreduce_exposed_seconds, 0.0);
  EXPECT_NEAR(an.exposed_collective_seconds(), rep.stats.back().allreduce_exposed_seconds,
              1e-12);
  EXPECT_TRUE(an.unmatched_flows().empty());
}

// --- determinism and parity -------------------------------------------------

TEST(ChromeTrace, VirtualClockExportIsByteIdenticalAcrossRuns) {
  auto run_once = [](std::string* out) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
    dist::HybridParallelTrainer hyb(factory, parity_options(),
                                    hybrid_config(2, 2, 4, 8, 2));
    obs::TraceSession session;
    hyb.attach_trace(&session);
    hyb.run();
    hyb.attach_trace(nullptr);
    obs::ChromeTraceOptions opts;
    opts.include_wall = false;  // strip wall stamps + DMA chunk rows
    *out = obs::export_chrome_trace(session, opts);
  };
  std::string a, b;
  run_once(&a);
  run_once(&b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("wall_us"), std::string::npos);
  EXPECT_EQ(a.find("dma_chunk"), std::string::npos);

  // Every flow start must have a matching finish, event for event.
  size_t starts = 0, finishes = 0, pos = 0;
  while ((pos = a.find("\"ph\": \"s\"", pos)) != std::string::npos) ++starts, pos += 9;
  pos = 0;
  while ((pos = a.find("\"ph\": \"f\"", pos)) != std::string::npos) ++finishes, pos += 9;
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);
}

TEST(Trace, RecordingDoesNotPerturbTrainingOrSchedule) {
  // Bit-parity guard: a traced run must produce the same losses AND the same
  // virtual-clock scalars as an untraced one.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  auto cfg = hybrid_config(2, 2, 4, 8, 3);

  dist::HybridParallelTrainer plain(factory, parity_options(), cfg);
  auto rep_plain = plain.run();

  dist::HybridParallelTrainer traced(factory, parity_options(), cfg);
  obs::TraceSession session;
  traced.attach_trace(&session);
  auto rep_traced = traced.run();
  traced.attach_trace(nullptr);

  ASSERT_EQ(rep_plain.losses.size(), rep_traced.losses.size());
  for (size_t i = 0; i < rep_plain.losses.size(); ++i) {
    EXPECT_EQ(rep_plain.losses[i], rep_traced.losses[i]) << "iteration " << i;
    EXPECT_EQ(rep_plain.stats[i].seconds, rep_traced.stats[i].seconds);
    EXPECT_EQ(rep_plain.stats[i].bubble_seconds, rep_traced.stats[i].bubble_seconds);
    EXPECT_EQ(rep_plain.stats[i].allreduce_exposed_seconds,
              rep_traced.stats[i].allreduce_exposed_seconds);
  }
}

// --- metrics ----------------------------------------------------------------

TEST(Metrics, StallHistogramBoundsArePinned) {
  const auto& bounds = obs::TraceAnalyzer::stall_histogram_bounds();
  const std::vector<double> expect = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
  ASSERT_EQ(bounds, expect);

  obs::MetricsRegistry m;
  m.histogram_observe("stall_duration_seconds", bounds, 5e-7);   // bucket 0
  m.histogram_observe("stall_duration_seconds", bounds, 5e-4);   // bucket 3
  m.histogram_observe("stall_duration_seconds", bounds, 0.5);    // overflow
  const obs::Histogram* h = m.histogram("stall_duration_seconds");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), bounds.size() + 1);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[3], 1u);
  EXPECT_EQ(h->counts[6], 1u);
  EXPECT_EQ(h->total, 3u);
  EXPECT_NEAR(h->sum, 5e-7 + 5e-4 + 0.5, 1e-15);
}

TEST(Metrics, AnalyzerFillsCountersGaugesAndHistogram) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer pipe(factory, parity_options(),
                                   hybrid_config(2, 1, 4, 8, 1));
  obs::TraceSession session;
  pipe.attach_trace(&session);
  pipe.run();
  pipe.attach_trace(nullptr);

  obs::TraceAnalyzer an(session);
  obs::MetricsRegistry m;
  an.fill_metrics(m);
  EXPECT_GT(m.counter("spans.compute"), 0u);
  EXPECT_GT(m.counter("flows.produced"), 0u);
  EXPECT_EQ(m.counter("flows.produced"), m.counter("flows.consumed"));
  EXPECT_EQ(m.counter("flows.unmatched"), 0u);
  EXPECT_NEAR(m.gauge("attr.bubble_seconds"), an.total().bubble_seconds, 0.0);
  const obs::Histogram* h = m.histogram("stall_duration_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total, m.counter("spans.stall"));
}

// --- DMA-worker wall chunks (TSan target) ------------------------------------

TEST(Trace, DmaWorkersRecordWallChunksConcurrently) {
  // Both per-direction DMA workers record one wall span per job
  // concurrently with schedule-thread machine spans — the data-race surface
  // TSan pins down.
  sim::Machine m(sim::k40c_spec());
  core::DmaTransferEngine eng(m, true);
  obs::TraceSession session;
  obs::TraceRecorder& rec = session.recorder_for(0);
  rec.set_ids(0, -1, -1);
  m.set_trace(&rec);

  constexpr int kJobsPerDir = 4;
  const size_t n = (1 << 18) / sizeof(float) + 13;
  std::vector<std::vector<float>> srcs, dsts;
  for (int i = 0; i < 2 * kJobsPerDir; ++i) {
    srcs.emplace_back(n, static_cast<float>(i + 1));
    dsts.emplace_back(n, 0.0f);
  }
  for (int i = 0; i < kJobsPerDir; ++i) {
    const auto tag = static_cast<uint64_t>(i);
    eng.submit(core::TransferDir::kD2H, tag, srcs[i].data(), dsts[i].data(), n * sizeof(float));
    eng.submit(core::TransferDir::kH2D, tag, srcs[kJobsPerDir + i].data(),
               dsts[kJobsPerDir + i].data(), n * sizeof(float));
    m.run_compute(0.001);  // schedule-side recording in parallel with the workers
  }
  eng.drain();
  m.set_trace(nullptr);
  for (int i = 0; i < 2 * kJobsPerDir; ++i) EXPECT_EQ(dsts[i], srcs[i]) << i;

  // One span per job, sorted (stream, seq): D2H seqs 1..4, then H2D 1..4.
  const auto chunks = rec.wall_chunks();
  ASSERT_EQ(chunks.size(), static_cast<size_t>(2 * kJobsPerDir));
  for (size_t i = 0; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    EXPECT_EQ(c.stream, static_cast<int>(i) / kJobsPerDir) << i;  // 0 = D2H, 1 = H2D
    EXPECT_EQ(c.seq, i % kJobsPerDir + 1) << i;
    EXPECT_EQ(c.bytes, n * sizeof(float)) << i;
    EXPECT_GE(c.wend, c.wbegin) << i;
  }
  // The wall ring never leaks into the deterministic export.
  obs::ChromeTraceOptions opts;
  opts.include_wall = false;
  EXPECT_EQ(obs::export_chrome_trace(session, opts).find("dma_chunk"), std::string::npos);
  // ...but the wall export carries them.
  EXPECT_NE(obs::export_chrome_trace(session).find("dma_chunk"), std::string::npos);
}
