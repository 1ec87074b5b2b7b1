// bench_sweep's pipeline and grid checks (bench/sweep_checks.hpp): each one
// fails on synthetic cells that violate it and names the offending cells, a
// cell set lacking a check's geometry is an error rather than a pass, and
// the small and full tiers declare cells for all four checks.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench/sweep_checks.hpp"

using namespace sn;
using bench::SweepCellResult;
using bench::SweepCellSpec;
using bench::SweepCheck;

namespace {

/// Synthetic medians that satisfy every check: the balanced-pipe bubble
/// (S-1)/(M+S-1) with 1F1B 10% below GPipe, throughput growing with the
/// device count, and 1F1B halving GPipe's exposed all-reduce on grids. Like
/// bench_sweep, only pipelined cells (S > 1, M > 1) carry bubble_frac, so a
/// check that asks any other cell for it throws.
SweepCellResult healthy(const SweepCellSpec& s) {
  const int devices = s.stages * s.replicas;
  double frac = static_cast<double>(s.stages - 1) / (s.microbatches + s.stages - 1);
  double exposed = s.replicas > 1 ? 0.010 : 0.0;
  if (s.schedule == "1f1b") {
    frac *= 0.9;
    exposed *= 0.5;
  }
  SweepCellResult c{s,
                    {{"img_per_s", {100.0 * devices}}, {"allreduce_exposed_seconds", {exposed}}}};
  if (s.stages > 1 && s.microbatches > 1) c.samples.emplace_back("bubble_frac", std::vector{frac});
  return c;
}

std::vector<SweepCellResult> healthy_tier(const std::string& tier) {
  std::vector<SweepCellResult> cells;
  for (const SweepCellSpec& s : bench::sweep_matrix(tier)) cells.push_back(healthy(s));
  return cells;
}

SweepCellResult& find(std::vector<SweepCellResult>& cells, const std::string& key) {
  for (SweepCellResult& c : cells) {
    if (bench::cell_key(c.spec) == key) return c;
  }
  throw std::invalid_argument("no cell " + key);
}

void set(SweepCellResult& c, const char* metric, double v) {
  for (auto& [name, samples] : c.samples) {
    if (name == metric) samples = {v};
  }
}

SweepCheck check(const std::vector<SweepCheck>& checks, const std::string& name) {
  for (const SweepCheck& c : checks) {
    if (c.name == name) return c;
  }
  throw std::invalid_argument("no check " + name);
}

/// The check failed and one of its violation lines names `cell`.
void expect_violation_names(const SweepCheck& c, const std::string& cell) {
  EXPECT_FALSE(c.ok()) << c.name;
  bool named = false;
  for (const std::string& line : c.violations) {
    named = named || line.find(cell) != std::string::npos;
  }
  EXPECT_TRUE(named) << c.name << " does not name " << cell;
}

const char* kChecks[] = {"gpipe_bubble_shrinks", "1f1b_bubble_below_gpipe",
                         "2x2_beats_2_device", "1f1b_allreduce_overlap"};

}  // namespace

TEST(SweepChecks, GatedTiersDeclareCellsForEveryCheck) {
  for (const char* tier : {"small", "full"}) {
    ASSERT_TRUE(bench::tier_has_checks(tier));
    const auto checks = bench::check_sweep(healthy_tier(tier));
    ASSERT_EQ(checks.size(), 4u);
    for (const SweepCheck& c : checks) {
      EXPECT_TRUE(c.ok()) << tier << " " << c.name << ": "
                          << (c.violations.empty() ? "" : c.violations.front());
      EXPECT_FALSE(c.checked.empty()) << tier << " " << c.name;
    }
  }
  // The grid check compares each 2x2x4 cell against its three baselines.
  const auto small = bench::check_sweep(healthy_tier("small"));
  EXPECT_EQ(check(small, "2x2_beats_2_device").checked.size(), 8u);  // 2 nets x 2 pools x 2
}

TEST(SweepChecks, MissingCellsAreAnErrorNotAPass) {
  ASSERT_FALSE(bench::tier_has_checks("demo"));
  for (const auto& checks :
       {bench::check_sweep({}), bench::check_sweep(healthy_tier("demo"))}) {
    for (const char* name : kChecks) {
      const SweepCheck c = check(checks, name);
      EXPECT_FALSE(c.ok()) << name;
      ASSERT_EQ(c.violations.size(), 1u) << name;
      EXPECT_EQ(c.violations[0].rfind("no cells", 0), 0u) << c.violations[0];
    }
  }
  // A 1F1B pipeline cell with M >= 2S but no GPipe twin is named, not skipped.
  auto cells = healthy_tier("small");
  std::erase_if(cells, [](const SweepCellResult& c) {
    return bench::cell_key(c.spec) == "VGG16/nvlink/s4r1m8/pool6/gpipe";
  });
  expect_violation_names(check(bench::check_sweep(cells), "1f1b_bubble_below_gpipe"),
                         "VGG16/nvlink/s4r1m8/pool6/1f1b");
}

TEST(SweepChecks, GPipeBubbleThatGrowsWithMIsNamed) {
  auto cells = healthy_tier("small");
  set(find(cells, "ResNet50/nvlink/s2r1m8/pool12/gpipe"), "bubble_frac", 0.5);
  const auto checks = bench::check_sweep(cells);
  expect_violation_names(check(checks, "gpipe_bubble_shrinks"),
                         "ResNet50/nvlink/s2r1m8/pool12/gpipe");
  EXPECT_EQ(check(checks, "gpipe_bubble_shrinks").violations.size(), 1u);
}

TEST(SweepChecks, OneF1BBubbleNotBelowGPipeIsNamed) {
  auto cells = healthy_tier("small");
  // A tie is a violation: the claim is strictly below.
  const double gpipe = find(cells, "VGG16/nvlink/s4r1m8/pool12/gpipe").median("bubble_frac");
  set(find(cells, "VGG16/nvlink/s4r1m8/pool12/1f1b"), "bubble_frac", gpipe);
  const SweepCheck c = check(bench::check_sweep(cells), "1f1b_bubble_below_gpipe");
  expect_violation_names(c, "VGG16/nvlink/s4r1m8/pool12/1f1b");
  EXPECT_EQ(c.violations.size(), 1u);
}

TEST(SweepChecks, GridThatNeverBeatsTheTwoDeviceBaselinesFails) {
  auto cells = healthy_tier("small");
  // Every 1x2 data-parallel cell now outruns the grid.
  for (SweepCellResult& c : cells) {
    if (c.spec.stages == 1 && c.spec.replicas == 2) set(c, "img_per_s", 1e4);
  }
  const SweepCheck c = check(bench::check_sweep(cells), "2x2_beats_2_device");
  EXPECT_FALSE(c.ok());
  // Each comparison names its grid cell and the baseline that beat it.
  ASSERT_FALSE(c.checked.empty());
  for (const std::string& line : c.checked) {
    EXPECT_NE(line.find("s2r2m4"), std::string::npos) << line;
    EXPECT_NE(line.find("s1r2m1"), std::string::npos) << line;
    EXPECT_NE(line.find(": loses"), std::string::npos) << line;
  }

  // One winning grid cell anywhere is enough.
  set(find(cells, "ResNet50/nvlink/s2r2m4/pool6/1f1b"), "img_per_s", 2e4);
  EXPECT_TRUE(check(bench::check_sweep(cells), "2x2_beats_2_device").ok());
}

TEST(SweepChecks, OneF1BExposingMoreAllReduceIsNamed) {
  auto cells = healthy_tier("small");
  set(find(cells, "VGG16/nvlink/s2r2m4/pool6/1f1b"), "allreduce_exposed_seconds", 0.02);
  const SweepCheck c = check(bench::check_sweep(cells), "1f1b_allreduce_overlap");
  expect_violation_names(c, "VGG16/nvlink/s2r2m4/pool6/1f1b");
  EXPECT_EQ(c.violations.size(), 1u);

  // Ties everywhere: nothing exposes more, but nothing strictly less either.
  auto ties = healthy_tier("small");
  for (SweepCellResult& cell : ties) {
    if (cell.spec.replicas > 1) set(cell, "allreduce_exposed_seconds", 0.01);
  }
  const SweepCheck t = check(bench::check_sweep(ties), "1f1b_allreduce_overlap");
  EXPECT_FALSE(t.ok());
  ASSERT_EQ(t.violations.size(), 1u);
  EXPECT_NE(t.violations[0].find("strictly less"), std::string::npos);
}

TEST(SweepChecks, MissingMetricThrowsNamingTheCell) {
  SweepCellResult c{bench::sweep_matrix("small").front(), {}};
  try {
    c.median("bubble_frac");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bench::cell_key(c.spec)), std::string::npos);
  }
}
