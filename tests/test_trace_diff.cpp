// obs::trace_diff tests (ISSUE 10 tentpole): schedule-op alignment across
// two Chrome-trace exports, per-bucket attribution of a synthetically
// injected slowdown, unmatched-span accounting, row filtering, the report's
// schema gate, and a clean self-diff of a real deterministic export.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "obs/trace_diff.hpp"
#include "perf/trajectory.hpp"
#include "util/json_reader.hpp"

namespace {

using namespace sn;

/// One synthetic duration event in the deterministic export's shape.
std::string span(int pid, int tid, const std::string& cat, const std::string& name,
                 double ts_us, double dur_us, const char* stall = nullptr) {
  char buf[320];
  if (stall) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"stall\": \"%s\"}}",
                  name.c_str(), cat.c_str(), pid, tid, ts_us, dur_us, stall);
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  name.c_str(), cat.c_str(), pid, tid, ts_us, dur_us);
  }
  return buf;
}

std::string trace(const std::vector<std::string>& events) {
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i) out += ", ";
    out += events[i];
  }
  return out + "]}";
}

util::JsonValue parse(const std::string& text) { return util::JsonValue::parse(text); }

const obs::TraceDiffBucket& bucket(const obs::TraceDiffReport& rep, const std::string& name) {
  for (const auto& b : rep.buckets) {
    if (b.bucket == name) return b;
  }
  ADD_FAILURE() << "bucket " << name << " missing from report";
  static obs::TraceDiffBucket none;
  return none;
}

TEST(TraceDiff, IdenticalTracesDiffToZero) {
  const std::string t = trace({
      span(0, 0, "compute", "conv1:f", 0, 100),
      span(0, 0, "compute", "conv1:b", 100, 200),
      span(0, 2, "h2d", "prefetch", 50, 40),
      span(0, 0, "stall", "recv_act", 300, 25, "pipeline_recv"),
  });
  auto rep = obs::diff_traces(parse(t), parse(t));
  EXPECT_EQ(rep.matched, 4u);
  EXPECT_EQ(rep.base_only, 0u);
  EXPECT_EQ(rep.cand_only, 0u);
  EXPECT_EQ(rep.delta(), 0.0);
  for (const auto& b : rep.buckets) EXPECT_EQ(b.delta(), 0.0) << b.bucket;
  EXPECT_TRUE(rep.top_movers.empty());
}

TEST(TraceDiff, AttributesInjectedSlowdownToItsBucket) {
  // Candidate = baseline with exactly one injected change: conv1:f runs
  // 50us longer. The compute bucket must absorb precisely that delta and
  // every other bucket must stay at zero.
  const std::string base = trace({
      span(0, 0, "compute", "conv1:f", 0, 100),
      span(0, 0, "compute", "conv1:b", 100, 200),
      span(0, 2, "h2d", "prefetch", 50, 40),
      span(1, 0, "stall", "recv_act", 300, 25, "pipeline_recv"),
  });
  const std::string cand = trace({
      span(0, 0, "compute", "conv1:f", 0, 150),  // +50us injected
      span(0, 0, "compute", "conv1:b", 150, 200),
      span(0, 2, "h2d", "prefetch", 50, 40),
      span(1, 0, "stall", "recv_act", 350, 25, "pipeline_recv"),
  });
  auto rep = obs::diff_traces(parse(base), parse(cand));
  EXPECT_EQ(rep.matched, 4u);
  EXPECT_NEAR(rep.delta(), 50e-6, 1e-12);
  EXPECT_NEAR(bucket(rep, "compute").delta(), 50e-6, 1e-12);
  EXPECT_EQ(bucket(rep, "h2d").delta(), 0.0);
  EXPECT_EQ(bucket(rep, "stall:pipeline_recv").delta(), 0.0);
  EXPECT_EQ(bucket(rep, "collective").delta(), 0.0);
  // Timestamps shifted for conv1:b and the stall, but durations did not:
  // alignment is by identity, not by ts.
  ASSERT_EQ(rep.top_movers.size(), 1u);
  EXPECT_EQ(rep.top_movers[0].name, "conv1:f");
  EXPECT_EQ(rep.top_movers[0].bucket, "compute");
  EXPECT_EQ(rep.top_movers[0].device, 0);
  EXPECT_NEAR(rep.top_movers[0].delta(), 50e-6, 1e-12);
  // The rendered artifact names the mover too.
  EXPECT_NE(rep.render_table().find("conv1:f"), std::string::npos);
}

TEST(TraceDiff, StallBucketsSplitBySource) {
  const std::string base = trace({
      span(0, 0, "stall", "recv_act", 0, 10, "pipeline_recv"),
      span(0, 0, "stall", "prefetch_wait", 20, 10, "transfer"),
      span(0, 0, "stall", "ar_await", 40, 10, "collective"),
      span(0, 0, "stall", "mystery", 60, 10),  // no args: stall:none
  });
  const std::string cand = trace({
      span(0, 0, "stall", "recv_act", 0, 30, "pipeline_recv"),  // +20us
      span(0, 0, "stall", "prefetch_wait", 40, 10, "transfer"),
      span(0, 0, "stall", "ar_await", 60, 10, "collective"),
      span(0, 0, "stall", "mystery", 80, 10),
  });
  auto rep = obs::diff_traces(parse(base), parse(cand));
  EXPECT_NEAR(bucket(rep, "stall:pipeline_recv").delta(), 20e-6, 1e-12);
  EXPECT_EQ(bucket(rep, "stall:transfer").delta(), 0.0);
  EXPECT_EQ(bucket(rep, "stall:collective").delta(), 0.0);
  EXPECT_EQ(bucket(rep, "stall:none").matched, 1u);
  EXPECT_EQ(bucket(rep, "stall:none").delta(), 0.0);
}

TEST(TraceDiff, UnmatchedOccurrencesCountPerSideAndInTheDelta) {
  // Same identity, different occurrence counts: the k-th occurrences pair
  // up in order; the candidate's extra span is cand_only and still lands in
  // the bucket delta (a schedule that runs MORE spans costs real time).
  const std::string base = trace({
      span(0, 0, "compute", "fc:f", 0, 100),
      span(0, 0, "compute", "fc:f", 100, 300),
  });
  const std::string cand = trace({
      span(0, 0, "compute", "fc:f", 0, 100),
      span(0, 0, "compute", "fc:f", 100, 400),  // k=2 pairs with base k=2
      span(0, 0, "compute", "fc:f", 500, 50),   // extra occurrence
      span(0, 1, "d2h", "offload", 0, 70),      // identity absent from base
  });
  auto rep = obs::diff_traces(parse(base), parse(cand));
  EXPECT_EQ(rep.matched, 2u);
  EXPECT_EQ(rep.base_only, 0u);
  EXPECT_EQ(rep.cand_only, 2u);
  const auto& comp = bucket(rep, "compute");
  EXPECT_EQ(comp.matched, 2u);
  EXPECT_EQ(comp.cand_only, 1u);
  EXPECT_NEAR(comp.cand_only_seconds, 50e-6, 1e-12);
  EXPECT_NEAR(comp.delta(), (100 + 50) * 1e-6, 1e-12);  // +100 matched, +50 extra
  const auto& d2h = bucket(rep, "d2h");
  EXPECT_EQ(d2h.matched, 0u);
  EXPECT_EQ(d2h.cand_only, 1u);
  EXPECT_NEAR(d2h.delta(), 70e-6, 1e-12);
  EXPECT_NEAR(rep.delta(), (100 + 50 + 70) * 1e-6, 1e-12);
  // Matched movers only: the per-identity mover reports the paired deltas.
  ASSERT_EQ(rep.top_movers.size(), 1u);
  EXPECT_EQ(rep.top_movers[0].occurrences, 2u);
  EXPECT_NEAR(rep.top_movers[0].delta(), 100e-6, 1e-12);
}

TEST(TraceDiff, IgnoresMetaFlowAndWallRows) {
  const std::string with_noise = trace({
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
      "\"args\": {\"name\": \"device 0\"}}",
      span(0, 0, "compute", "conv1:f", 0, 100),
      "{\"name\": \"flow\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": 7, \"pid\": 0, "
      "\"tid\": 0, \"ts\": 10.0}",
      "{\"name\": \"flow\", \"cat\": \"flow\", \"ph\": \"f\", \"id\": 7, \"pid\": 1, "
      "\"tid\": 0, \"ts\": 20.0}",
      span(0, 1, "dma_chunk", "chunk", 0, 999),  // wall-only row: excluded
  });
  const std::string clean = trace({span(0, 0, "compute", "conv1:f", 0, 100)});
  auto rep = obs::diff_traces(parse(with_noise), parse(clean));
  EXPECT_EQ(rep.matched, 1u);
  EXPECT_EQ(rep.base_only, 0u);
  EXPECT_EQ(rep.cand_only, 0u);
  EXPECT_EQ(rep.delta(), 0.0);
}

TEST(TraceDiff, RejectsNonTraceDocuments) {
  EXPECT_THROW(obs::diff_traces(parse("{\"foo\": 1}"), parse("{\"traceEvents\": []}")),
               util::JsonError);
}

TEST(TraceDiff, RealSelfDiffIsCleanAndReportPassesSchemaCheck) {
  // Two identical runs export byte-identical deterministic traces; their
  // diff must be exactly empty — and the report document must satisfy the
  // same schema gate CI runs on the uploaded artifact.
  auto run_once = [](std::string* out) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
    dist::HybridParallelConfig cfg;
    cfg.stages = 2;
    cfg.replicas = 2;
    cfg.microbatches = 4;
    cfg.global_batch = 8;
    cfg.cluster = sim::pcie_cluster_spec(4);
    cfg.train.iterations = 2;
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = true;
    o.device_capacity = 32ull << 20;
    o.allow_workspace = false;
    dist::HybridParallelTrainer hyb(factory, o, cfg);
    obs::TraceSession session;
    hyb.attach_trace(&session);
    hyb.run();
    hyb.attach_trace(nullptr);
    obs::ChromeTraceOptions opts;
    opts.include_wall = false;
    *out = obs::export_chrome_trace(session, opts);
  };
  std::string a, b;
  run_once(&a);
  run_once(&b);
  auto rep = obs::diff_traces(parse(a), parse(b));
  EXPECT_GT(rep.matched, 0u);
  EXPECT_EQ(rep.base_only, 0u);
  EXPECT_EQ(rep.cand_only, 0u);
  EXPECT_EQ(rep.delta(), 0.0);
  EXPECT_TRUE(rep.top_movers.empty());
  // A real trace exercises every taxonomy row the report carries.
  EXPECT_GT(bucket(rep, "compute").matched, 0u);
  EXPECT_GT(bucket(rep, "p2p").matched, 0u);

  util::JsonValue doc = util::JsonValue::parse(rep.to_json(), "<inline>");
  EXPECT_GT(perf::schema_check(doc, "trace_diff_report", "<inline>"), 0u);
}

}  // namespace
