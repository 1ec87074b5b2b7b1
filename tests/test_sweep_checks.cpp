// bench_sweep's pipeline and grid checks (bench/sweep_checks.hpp): each one
// fails on synthetic cells that violate it and names the offending cells, a
// cell set lacking a check's geometry is an error rather than a pass, and
// the small and full tiers declare cells for both checks.
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
/// (S-1)/(M+S-1) and throughput growing with the device count. Like
/// bench_sweep, only pipelined cells (S > 1, M > 1) carry bubble_frac, so a
/// check that asks any other cell for it throws.
SweepCellResult healthy(const SweepCellSpec& s) {
  const int devices = s.stages * s.replicas;
  const double frac = static_cast<double>(s.stages - 1) / (s.microbatches + s.stages - 1);
  SweepCellResult c{s, {{"img_per_s", {100.0 * devices}}}};
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

const char* kChecks[] = {"bubble_shrinks", "2x2_beats_2_device"};

}  // namespace

TEST(SweepChecks, GatedTiersDeclareCellsForEveryCheck) {
  for (const char* tier : {"small", "full"}) {
    ASSERT_TRUE(bench::tier_has_checks(tier));
    const auto checks = bench::check_sweep(healthy_tier(tier));
    ASSERT_EQ(checks.size(), 2u);
    for (const SweepCheck& c : checks) {
      EXPECT_TRUE(c.ok()) << tier << " " << c.name << ": "
                          << (c.violations.empty() ? "" : c.violations.front());
      EXPECT_FALSE(c.checked.empty()) << tier << " " << c.name;
    }
  }
  // The grid check compares each 2x2x4 cell against its two baselines, and
  // the bubble check each 2x1 pipeline's m4 cell against its m8 cell.
  const auto small = bench::check_sweep(healthy_tier("small"));
  EXPECT_EQ(check(small, "2x2_beats_2_device").checked.size(), 4u);  // 2 nets x 2 pools
  EXPECT_EQ(check(small, "bubble_shrinks").checked.size(), 4u);
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
}

TEST(SweepChecks, BubbleThatGrowsWithMIsNamed) {
  auto cells = healthy_tier("small");
  set(find(cells, "ResNet50/nvlink/s2r1m8/pool12/1f1b"), "bubble_frac", 0.5);
  const auto checks = bench::check_sweep(cells);
  expect_violation_names(check(checks, "bubble_shrinks"), "ResNet50/nvlink/s2r1m8/pool12/1f1b");
  EXPECT_EQ(check(checks, "bubble_shrinks").violations.size(), 1u);

  // A tie is a violation: the claim is strictly smaller.
  auto ties = healthy_tier("small");
  const double m4 = find(ties, "VGG16/nvlink/s2r1m4/pool6/1f1b").median("bubble_frac");
  set(find(ties, "VGG16/nvlink/s2r1m8/pool6/1f1b"), "bubble_frac", m4);
  const SweepCheck t = check(bench::check_sweep(ties), "bubble_shrinks");
  expect_violation_names(t, "VGG16/nvlink/s2r1m8/pool6/1f1b");
  EXPECT_EQ(t.violations.size(), 1u);
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

TEST(SweepChecks, MissingMetricThrowsNamingTheCell) {
  SweepCellResult c{bench::sweep_matrix("small").front(), {}};
  try {
    c.median("bubble_frac");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bench::cell_key(c.spec)), std::string::npos);
  }
}
