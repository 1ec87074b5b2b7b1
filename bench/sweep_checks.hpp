// The pipeline and grid claims bench_sweep asserts over its own cells; a
// violated check makes the sweep exit nonzero.
//
//   bubble_shrinks       The 2-stage bubble_frac shrinks as M grows: the
//                        (S-1)-slot fill/drain ramps amortize over more
//                        microbatches.
//   2x2_beats_2_device   The 2x2x4 grid beats the 1x2 data-parallel cell and
//                        the 2x1x4 pipeline cell on img_per_s for at least
//                        one net: smaller per-device nets than DP, smaller
//                        per-device batches than the pipeline.
//
// bubble_frac is (span - max cell busy) / span, the classic (S-1)/(M+S-1)
// for a balanced pipe.
//
// A check whose cells the input lacks is a violation, not a pass: a tier
// that stops declaring a geometry must not silently retire its gate.
#pragma once

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep_config.hpp"

namespace sn::bench {

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SweepCellResult {
  SweepCellSpec spec;
  /// metric name -> per-repeat samples (insertion-ordered for stable JSON).
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  /// Median over the repeats; throws if the cell never recorded `metric`.
  double median(const std::string& metric) const {
    for (const auto& [name, s] : samples) {
      if (name == metric && !s.empty()) return median_of(s);
    }
    throw std::invalid_argument(cell_key(spec) + " has no samples of " + metric);
  }
};

struct SweepCheck {
  std::string name;
  std::string claim;
  std::vector<std::string> checked;     ///< every comparison made, naming its cells
  std::vector<std::string> violations;  ///< the failed ones, plus "no cells" / "no win"
  bool ok() const { return violations.empty(); }
};

/// Run the two checks over a sweep's cell medians.
inline std::vector<SweepCheck> check_sweep(const std::vector<SweepCellResult>& cells) {
  // Net, link, pool and staging: the coordinates every comparison holds fixed.
  auto same_place = [](const SweepCellSpec& a, const SweepCellSpec& b) {
    return a.net == b.net && a.link == b.link && a.pool_gb == b.pool_gb &&
           a.peer_staging == b.peer_staging;
  };
  auto val = [](const SweepCellResult& c, const char* metric) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", c.median(metric));
    return cell_key(c.spec) + buf;
  };
  std::vector<SweepCheck> out;

  SweepCheck shrink{"bubble_shrinks", "the 2-stage bubble_frac shrinks as M grows", {}, {}};
  for (const SweepCellResult& a : cells) {
    if (a.spec.stages != 2) continue;
    const SweepCellResult* next = nullptr;  // same cell at the next larger M
    for (const SweepCellResult& b : cells) {
      if (same_place(a.spec, b.spec) && b.spec.stages == 2 &&
          b.spec.replicas == a.spec.replicas && b.spec.microbatches > a.spec.microbatches &&
          (!next || b.spec.microbatches < next->spec.microbatches)) {
        next = &b;
      }
    }
    if (!next) continue;
    shrink.checked.push_back(val(a, "bubble_frac") + " -> " + val(*next, "bubble_frac"));
    if (!(next->median("bubble_frac") < a.median("bubble_frac"))) {
      shrink.violations.push_back(shrink.checked.back());
    }
  }
  if (shrink.checked.empty()) {
    shrink.violations.push_back("no cells: no two 2-stage cells differ only in M");
  }
  out.push_back(std::move(shrink));

  SweepCheck grid{"2x2_beats_2_device",
                  "a 2x2x4 cell beats the 1x2 cell and the 2x1x4 cell on img_per_s", {}, {}};
  bool grid_wins = false;
  for (const SweepCellResult& a : cells) {
    const SweepCellSpec& s = a.spec;
    if (s.stages != 2 || s.replicas != 2 || s.microbatches != 4) continue;
    const SweepCellResult *dp = nullptr, *pipe = nullptr;
    for (const SweepCellResult& b : cells) {
      if (!same_place(s, b.spec)) continue;
      if (b.spec.stages == 1 && b.spec.replicas == 2 && b.spec.microbatches == 1) dp = &b;
      if (b.spec.stages == 2 && b.spec.replicas == 1 && b.spec.microbatches == 4) pipe = &b;
    }
    if (!dp || !pipe) continue;
    const double mine = a.median("img_per_s");
    const bool wins = mine > dp->median("img_per_s") && mine > pipe->median("img_per_s");
    grid.checked.push_back(val(a, "img_per_s") + " vs " + val(*dp, "img_per_s") + ", " +
                           val(*pipe, "img_per_s") + (wins ? ": wins" : ": loses"));
    grid_wins = grid_wins || wins;
  }
  if (grid.checked.empty()) {
    grid.violations.push_back("no cells: no 2x2x4 cell with its 1x2x1 and 2x1x4 baselines");
  } else if (!grid_wins) {
    grid.violations.push_back("no 2x2x4 cell beats both 2-device baselines");
  }
  out.push_back(std::move(grid));
  return out;
}

}  // namespace sn::bench
