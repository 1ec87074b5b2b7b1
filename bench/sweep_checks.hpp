// The pipeline and grid claims bench_sweep asserts over its own cells; a
// violated check makes the sweep exit nonzero.
//
//   gpipe_bubble_shrinks     GPipe's 2-stage bubble_frac shrinks as M grows:
//                            the (S-1)-slot fill/drain ramps amortize over
//                            more microbatches.
//   1f1b_bubble_below_gpipe  1F1B's bubble_frac is strictly below GPipe's at
//                            every S x 1 pipeline cell with M >= 2S: it
//                            drains during the fill ramp and its last stage
//                            never re-materializes.
//   2x2_beats_2_device       The 2x2x4 grid beats the 1x2 data-parallel cell
//                            and both 2x1x4 pipeline cells on img_per_s for at
//                            least one net: smaller per-device nets than DP,
//                            smaller per-device batches than the pipeline.
//   1f1b_allreduce_overlap   No 1F1B grid cell exposes more all-reduce than
//                            its GPipe twin, and at least one exposes strictly
//                            less: bucketed 1F1B issues each stage's
//                            all-reduce as its last microbatch retires.
//
// bubble_frac is (span - max cell busy) / span, the classic (S-1)/(M+S-1)
// for a balanced pipe. Summed receiver-side stalls (bubble_seconds) make a
// poor cross-schedule gate: 1F1B does less work per iteration, and at a
// fixed bottleneck every saved second reappears as idle on another stage.
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

/// Run the four checks over a sweep's cell medians.
inline std::vector<SweepCheck> check_sweep(const std::vector<SweepCellResult>& cells) {
  // Net, link, pool and staging: the coordinates every comparison holds fixed.
  auto same_place = [](const SweepCellSpec& a, const SweepCellSpec& b) {
    return a.net == b.net && a.link == b.link && a.pool_gb == b.pool_gb &&
           a.peer_staging == b.peer_staging;
  };
  // `a` run under the other schedule.
  auto twin = [&](const SweepCellSpec& a, const char* schedule) -> const SweepCellResult* {
    for (const SweepCellResult& c : cells) {
      const SweepCellSpec& b = c.spec;
      if (same_place(a, b) && b.stages == a.stages && b.replicas == a.replicas &&
          b.microbatches == a.microbatches && b.schedule == schedule) {
        return &c;
      }
    }
    return nullptr;
  };
  auto val = [](const SweepCellResult& c, const char* metric) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", c.median(metric));
    return cell_key(c.spec) + buf;
  };
  auto record = [](SweepCheck& chk, bool holds, const std::string& line) {
    chk.checked.push_back(line);
    if (!holds) chk.violations.push_back(line);
  };
  std::vector<SweepCheck> out;

  SweepCheck shrink{"gpipe_bubble_shrinks", "GPipe's 2-stage bubble_frac shrinks as M grows",
                    {}, {}};
  for (const SweepCellResult& a : cells) {
    if (a.spec.stages != 2 || a.spec.schedule != "gpipe") continue;
    const SweepCellResult* next = nullptr;  // same cell at the next larger M
    for (const SweepCellResult& b : cells) {
      if (same_place(a.spec, b.spec) && b.spec.stages == 2 && b.spec.schedule == "gpipe" &&
          b.spec.replicas == a.spec.replicas && b.spec.microbatches > a.spec.microbatches &&
          (!next || b.spec.microbatches < next->spec.microbatches)) {
        next = &b;
      }
    }
    if (!next) continue;
    record(shrink, next->median("bubble_frac") < a.median("bubble_frac"),
           val(a, "bubble_frac") + " -> " + val(*next, "bubble_frac"));
  }
  if (shrink.checked.empty()) {
    shrink.violations.push_back("no cells: no two 2-stage GPipe cells differ only in M");
  }
  out.push_back(std::move(shrink));

  SweepCheck below{"1f1b_bubble_below_gpipe",
                   "1F1B's bubble_frac is strictly below GPipe's at every S x 1 cell with "
                   "M >= 2S",
                   {}, {}};
  for (const SweepCellResult& a : cells) {
    const SweepCellSpec& s = a.spec;
    if (s.schedule != "1f1b" || s.replicas != 1 || s.microbatches < 2 * s.stages) continue;
    const SweepCellResult* g = twin(s, "gpipe");
    if (!g) {
      below.checked.push_back(cell_key(s) + ": no GPipe twin");
      below.violations.push_back(below.checked.back());
      continue;
    }
    record(below, a.median("bubble_frac") < g->median("bubble_frac"),
           val(a, "bubble_frac") + " < " + val(*g, "bubble_frac"));
  }
  if (below.checked.empty()) {
    below.violations.push_back("no cells: no S x 1 1F1B cell with M >= 2S");
  }
  out.push_back(std::move(below));

  SweepCheck grid{"2x2_beats_2_device",
                  "a 2x2x4 cell beats the 1x2 cell and both 2x1x4 cells on img_per_s",
                  {}, {}};
  bool grid_wins = false;
  for (const SweepCellResult& a : cells) {
    const SweepCellSpec& s = a.spec;
    if (s.stages != 2 || s.replicas != 2 || s.microbatches != 4) continue;
    const SweepCellResult* dp = nullptr;
    std::vector<const SweepCellResult*> pipes;
    for (const SweepCellResult& b : cells) {
      if (!same_place(s, b.spec)) continue;
      if (b.spec.stages == 1 && b.spec.replicas == 2 && b.spec.microbatches == 1) dp = &b;
      if (b.spec.stages == 2 && b.spec.replicas == 1 && b.spec.microbatches == 4) {
        pipes.push_back(&b);
      }
    }
    if (!dp || pipes.size() != 2) continue;
    const double mine = a.median("img_per_s");
    bool wins = mine > dp->median("img_per_s");
    std::string line = val(a, "img_per_s") + " vs " + val(*dp, "img_per_s");
    for (const SweepCellResult* p : pipes) {
      wins = wins && mine > p->median("img_per_s");
      line += ", " + val(*p, "img_per_s");
    }
    grid.checked.push_back(line + (wins ? ": wins" : ": loses"));
    grid_wins = grid_wins || wins;
  }
  if (grid.checked.empty()) {
    grid.violations.push_back(
        "no cells: no 2x2x4 cell with its 1x2x1 and both 2x1x4 baselines");
  } else if (!grid_wins) {
    grid.violations.push_back("no 2x2x4 cell beats all three 2-device baselines");
  }
  out.push_back(std::move(grid));

  // Grid cells only: an S x 1 pipeline has no all-reduce to expose.
  SweepCheck overlap{"1f1b_allreduce_overlap",
                     "no 1F1B cell exposes more all-reduce than its GPipe twin; one exposes "
                     "strictly less",
                     {}, {}};
  bool strict_win = false;
  for (const SweepCellResult& a : cells) {
    if (a.spec.schedule != "1f1b" || a.spec.replicas < 2) continue;
    const SweepCellResult* g = twin(a.spec, "gpipe");
    if (!g) {
      overlap.checked.push_back(cell_key(a.spec) + ": no GPipe twin");
      overlap.violations.push_back(overlap.checked.back());
      continue;
    }
    const double e1 = a.median("allreduce_exposed_seconds");
    const double eg = g->median("allreduce_exposed_seconds");
    strict_win = strict_win || e1 < eg;
    record(overlap, e1 <= eg,
           val(a, "allreduce_exposed_seconds") + " <= " + val(*g, "allreduce_exposed_seconds"));
  }
  if (overlap.checked.empty()) {
    overlap.violations.push_back("no cells: no 1F1B grid cell (R >= 2)");
  } else if (!strict_win) {
    overlap.violations.push_back("no 1F1B cell exposes strictly less all-reduce than GPipe");
  }
  out.push_back(std::move(overlap));
  return out;
}

}  // namespace sn::bench
