// perf-trajectory gate semantics: an out-of-band regression fails and is
// named, an improvement passes, jitter inside the recorded noise band
// passes, dropped/renamed cells are named, malformed, unversioned and
// mixed-schema input is rejected, and the stream_overlap/prefetch_lookahead
// sections normalize into the same cell map as the sweep.
#include <gtest/gtest.h>

#include <string>

#include "perf/trajectory.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

using namespace sn;
using perf::DeltaClass;
using perf::DiffOptions;
using perf::DiffReport;
using perf::TrajectoryError;
using perf::TrajectoryPoint;

namespace {

constexpr const char* kCellA = "sweep/VGG16/nvlink/s2r2m4/pool12/1f1b";
constexpr const char* kCellB = "sweep/ResNet50/nvlink/s2r2m4/pool12/gpipe";

/// One-cell metric block: {median, lo, hi, n} for seconds plus an info
/// byte counter.
std::string metrics(double sec, double lo, double hi, double bytes = 1e6) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                R"("metrics": {
  "seconds": { "median": %g, "lo": %g, "hi": %g, "n": 3 },
  "p2p_bytes": { "median": %g, "lo": %g, "hi": %g, "n": 3 }
})",
                sec, lo, hi, bytes, bytes, bytes);
  return buf;
}

/// A minimal schema_version-1 point with two sweep cells (VGG16 1f1b and
/// ResNet50 gpipe at s2r2m4/pool12).
std::string sweep_point(int point, const std::string& cell_a_metrics,
                        const std::string& cell_b_metrics, const char* b_net = "ResNet50") {
  std::string d = "{\n\"trajectory_point\": " + std::to_string(point) +
                  ",\n\"schema_version\": 1,\n\"sweep\": {\n"
                  "\"schema_version\": 1, \"kind\": \"sweep\", \"trajectory_point\": " +
                  std::to_string(point) +
                  ",\n\"tier\": \"small\", \"repeats\": 3, \"global_batch\": 32,\n"
                  "\"cells\": [\n"
                  "{ \"net\": \"VGG16\", \"link\": \"nvlink\", \"stages\": 2, \"replicas\": 2, "
                  "\"microbatches\": 4, \"pool_gb\": 12, \"schedule\": \"1f1b\", " +
                  cell_a_metrics +
                  " },\n"
                  "{ \"net\": \"" +
                  b_net +
                  "\", \"link\": \"nvlink\", \"stages\": 2, \"replicas\": 2, "
                  "\"microbatches\": 4, \"pool_gb\": 12, \"schedule\": \"gpipe\", " +
                  cell_b_metrics + " }\n]\n}\n}";
  return d;
}

/// `point` with extra top-level sections spliced in after its schema_version.
std::string with_sections(std::string point, const std::string& sections) {
  const std::string anchor = "\"schema_version\": 1,\n";
  point.insert(point.find(anchor) + anchor.size(), sections + ",\n");
  return point;
}

TrajectoryPoint load(const std::string& text, const std::string& origin = "<test>") {
  return perf::load_trajectory(util::JsonValue::parse(text, origin), origin);
}

const std::string kBaseline =
    sweep_point(90, metrics(0.100, 0.099, 0.101), metrics(0.200, 0.198, 0.202));

}  // namespace

TEST(TrajectoryDiff, RegressionFailsAndNamesTheCell) {
  TrajectoryPoint base = load(kBaseline);
  TrajectoryPoint cand =
      load(sweep_point(91, metrics(0.130, 0.129, 0.131), metrics(0.200, 0.198, 0.202)));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.regressions, 1);
  ASSERT_FALSE(rep.entries.empty());
  // Regressions rank first.
  EXPECT_EQ(rep.entries[0].cls, DeltaClass::kRegression);
  EXPECT_EQ(rep.entries[0].cell, kCellA);
  EXPECT_EQ(rep.entries[0].metric, "seconds");
  // The rendered table names both the cell and the verdict.
  std::string table = perf::render_diff_table(rep);
  EXPECT_NE(table.find(kCellA), std::string::npos);
  EXPECT_NE(table.find("TRAJECTORY REGRESSED"), std::string::npos);
}

TEST(TrajectoryDiff, ImprovementPasses) {
  TrajectoryPoint base = load(kBaseline);
  TrajectoryPoint cand =
      load(sweep_point(91, metrics(0.085, 0.0845, 0.0855), metrics(0.200, 0.198, 0.202)));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.improvements, 1);
  EXPECT_NE(perf::render_diff_table(rep).find("TRAJECTORY OK"), std::string::npos);
}

TEST(TrajectoryDiff, JitterInsideRecordedDispersionPasses) {
  TrajectoryPoint base = load(kBaseline);
  // +0.5% moves on both cells: inside the 2% relative floor, and also inside
  // cell B's recorded 0.004 s spread.
  TrajectoryPoint cand =
      load(sweep_point(91, metrics(0.1005, 0.100, 0.101), metrics(0.2010, 0.199, 0.203)));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.improvements, 0);
  EXPECT_EQ(rep.within_band, 2);
}

TEST(TrajectoryDiff, RecordedDispersionWidensTheBand) {
  // Baseline recorded a wide 10% envelope — a 6% move stays within band
  // even though it far exceeds the 2% relative floor.
  TrajectoryPoint base =
      load(sweep_point(90, metrics(0.100, 0.095, 0.105), metrics(0.200, 0.198, 0.202)));
  TrajectoryPoint cand =
      load(sweep_point(91, metrics(0.106, 0.105, 0.107), metrics(0.200, 0.198, 0.202)));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.regressions, 0);
}

TEST(TrajectoryDiff, MissingCellFailsAndIsNamed) {
  TrajectoryPoint base = load(kBaseline);
  // Renamed net: cell B ("ResNet50") disappears, "ResNet50v2" appears.
  TrajectoryPoint cand = load(sweep_point(
      91, metrics(0.100, 0.099, 0.101), metrics(0.200, 0.198, 0.202), "ResNet50v2"));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.removed, 1);
  EXPECT_EQ(rep.added, 1);
  bool named = false;
  for (const auto& e : rep.entries) {
    if (e.cls == DeltaClass::kRemoved && e.cell == kCellB) named = true;
  }
  EXPECT_TRUE(named) << "removed entry must carry the dropped cell key";
  // Baseline-refresh flows may intentionally drop coverage.
  DiffOptions tolerant;
  tolerant.allow_missing = true;
  EXPECT_TRUE(perf::diff_trajectories(base, cand, tolerant).ok);
}

TEST(TrajectoryDiff, InfoMetricsDriftWithoutFailing) {
  TrajectoryPoint base = load(kBaseline);
  TrajectoryPoint cand = load(sweep_point(91, metrics(0.100, 0.099, 0.101, 2e6),
                                          metrics(0.200, 0.198, 0.202)));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.info_changed, 1);
}

TEST(TrajectoryDiff, MetricKindPolicy) {
  EXPECT_EQ(perf::metric_kind("seconds"), perf::MetricKind::kLowerBetter);
  EXPECT_EQ(perf::metric_kind("bubble_frac"), perf::MetricKind::kLowerBetter);
  EXPECT_EQ(perf::metric_kind("allreduce_exposed_seconds"), perf::MetricKind::kLowerBetter);
  EXPECT_EQ(perf::metric_kind("stall_ms_l3"), perf::MetricKind::kLowerBetter);
  EXPECT_EQ(perf::metric_kind("img_per_s"), perf::MetricKind::kHigherBetter);
  EXPECT_EQ(perf::metric_kind("overlap_ratio"), perf::MetricKind::kHigherBetter);
  EXPECT_EQ(perf::metric_kind("p2p_bytes"), perf::MetricKind::kInfo);
  EXPECT_EQ(perf::metric_kind("best_lookahead"), perf::MetricKind::kInfo);
}

TEST(TrajectoryDiff, MalformedInputRejected) {
  EXPECT_THROW(util::JsonValue::parse("{ truncated", "bad.json"), util::JsonError);
  // Well-formed JSON that is not a trajectory point: raw bench output must
  // be merged first, and the error says so.
  try {
    load(R"({"global_batch": 32, "configs": []})");
    FAIL() << "expected TrajectoryError";
  } catch (const TrajectoryError& e) {
    EXPECT_NE(std::string(e.what()).find("trajectory_point"), std::string::npos);
  }
}

TEST(TrajectoryDiff, MixedSchemaRejected) {
  // An unversioned file, whatever its sections.
  std::string unversioned = sweep_point(90, metrics(0.1, 0.1, 0.1), metrics(0.2, 0.2, 0.2));
  unversioned.replace(unversioned.find("\"schema_version\": 1,\n"), 21, "");
  EXPECT_THROW(load(unversioned), TrajectoryError);

  // A v1 point carrying a section of the retired bench generation.
  const std::string retired = with_sections(
      sweep_point(90, metrics(0.1, 0.1, 0.1), metrics(0.2, 0.2, 0.2)),
      R"("pipeline_stages": {"global_batch": 32, "configs": [
        {"net": "VGG16", "schedule": "1f1b", "stages": 2, "microbatches": 4,
         "seconds": 0.18, "bubble_seconds": 0.008, "bubble_frac": 0.15,
         "p2p_bytes": 1000, "p2p_seconds": 0.001}]})");
  try {
    load(retired);
    FAIL() << "expected TrajectoryError";
  } catch (const TrajectoryError& e) {
    EXPECT_NE(std::string(e.what()).find("pipeline_stages"), std::string::npos);
  }

  // v1 outer point whose sweep section claims a different generation.
  std::string skewed = sweep_point(90, metrics(0.1, 0.1, 0.1), metrics(0.2, 0.2, 0.2));
  skewed.replace(skewed.find("\"trajectory_point\": 90,\n\"schema_version\""), 23,
                 "\"trajectory_point\": 91,\n");
  EXPECT_THROW(load(skewed), TrajectoryError);

  // Future schema versions are rejected, not misread.
  std::string future = sweep_point(90, metrics(0.1, 0.1, 0.1), metrics(0.2, 0.2, 0.2));
  future.replace(future.find("\"schema_version\": 1"), 19, "\"schema_version\": 7");
  EXPECT_THROW(load(future), TrajectoryError);

  // schema_version 1 without the sweep section it promises.
  EXPECT_THROW(load(R"({"trajectory_point": 9, "schema_version": 1})"), TrajectoryError);

  // Unknown sections mean a newer or corrupted generation.
  EXPECT_THROW(
      load(with_sections(sweep_point(90, metrics(0.1, 0.1, 0.1), metrics(0.2, 0.2, 0.2)),
                         R"("mystery": {})")),
      TrajectoryError);
}

TEST(TrajectoryDiff, SweepStatsValidated) {
  // lo > median violates the dispersion invariant.
  EXPECT_THROW(load(sweep_point(90, metrics(0.1, 0.15, 0.2), metrics(0.2, 0.2, 0.2))),
               TrajectoryError);
}

TEST(TrajectoryDiff, StreamOverlapAndPrefetchSectionsNormalize) {
  const std::string sections = R"("stream_overlap": {
      "micro": {"serialized_s": 1.0e-2, "dual_s": 6.0e-3, "d2h_seconds": 5.0e-3,
                "h2d_seconds": 5.0e-3, "overlap_ratio": 1.7},
      "nets": [
        {"name": "AlexNet", "batch": 128, "ok": true, "serialized_ms": 50.0,
         "dual_ms": 30.0, "d2h_seconds": 2.0e-2, "h2d_seconds": 2.0e-2}
      ]
    },
    "prefetch_lookahead": {
      "nets": [
        {"name": "AlexNet", "batch": 1024, "best_lookahead": 2,
         "stall_ms": [5.0, 2.0, 1.0, 1.5, 2.5]}
      ]
    })";
  const std::string base = sweep_point(90, metrics(0.1, 0.1, 0.1), metrics(0.2, 0.2, 0.2));
  TrajectoryPoint p = load(with_sections(base, sections));
  EXPECT_EQ(p.point, 90);
  EXPECT_EQ(p.cells.count(kCellA), 1u);
  EXPECT_EQ(p.cells.count("stream_overlap/micro"), 1u);
  EXPECT_EQ(p.cells.count("stream_overlap/AlexNet/b128"), 1u);
  EXPECT_EQ(p.cells.count("prefetch_lookahead/AlexNet/b1024"), 1u);
  // The "ok" bool becomes a 0/1 metric.
  EXPECT_DOUBLE_EQ(p.cells["stream_overlap/AlexNet/b128"]["ok"].median, 1.0);
  // Single-shot rows collapse to a degenerate envelope.
  const perf::MetricStat& s = p.cells["stream_overlap/AlexNet/b128"]["dual_ms"];
  EXPECT_EQ(s.repeats, 1);
  EXPECT_DOUBLE_EQ(s.lo, s.hi);
  // Per-lookahead stalls fan out into gated stall_ms_l<k> metrics.
  const auto& pf = p.cells["prefetch_lookahead/AlexNet/b1024"];
  for (int l = 0; l < 5; ++l) EXPECT_EQ(pf.count("stall_ms_l" + std::to_string(l)), 1u);
  EXPECT_EQ(pf.count("stall_ms_l5"), 0u);
  EXPECT_DOUBLE_EQ(pf.at("stall_ms_l2").median, 1.0);

  // "ok" must be a bool, not a number.
  std::string numeric_ok = sections;
  numeric_ok.replace(numeric_ok.find("\"ok\": true"), 10, "\"ok\": 1");
  EXPECT_THROW(load(with_sections(base, numeric_ok)), TrajectoryError);
}

TEST(TrajectoryDiff, ReportRoundTripsAndPassesItsOwnSchemaCheck) {
  TrajectoryPoint base = load(kBaseline);
  TrajectoryPoint cand =
      load(sweep_point(91, metrics(0.130, 0.129, 0.131), metrics(0.200, 0.198, 0.202)));
  DiffReport rep = perf::diff_trajectories(base, cand, DiffOptions{});
  util::JsonWriter w;
  perf::write_diff_report(rep, DiffOptions{}, w);
  util::JsonValue doc = util::JsonValue::parse(w.str(), "<report>");
  EXPECT_EQ(doc.get("kind").as_string(), "trajectory_diff");
  EXPECT_EQ(doc.get("status").as_string(), "regressed");
  EXPECT_DOUBLE_EQ(doc.get("baseline_point").as_number(), 90.0);
  EXPECT_DOUBLE_EQ(doc.get("candidate_point").as_number(), 91.0);
  EXPECT_GE(doc.get("entries").size(), 1u);
  EXPECT_NO_THROW(perf::schema_check(doc, "diff_report", "<report>"));
}

TEST(TrajectoryDiff, SchemaCheckRejectsWrongKind) {
  util::JsonValue doc = util::JsonValue::parse(kBaseline, "<point>");
  EXPECT_NO_THROW(perf::schema_check(doc, "trajectory", "<point>"));
  // A whole point is not a bare sweep document (no "kind": "sweep").
  EXPECT_THROW(perf::schema_check(doc, "sweep", "<point>"), TrajectoryError);
  // Retired kinds are unknown kinds.
  EXPECT_THROW(perf::schema_check(doc, "pipeline_stages", "<point>"), TrajectoryError);
  EXPECT_THROW(perf::schema_check(doc, "nonsense_kind", "<point>"), TrajectoryError);
}
