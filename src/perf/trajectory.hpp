// Perf-trajectory model: normalized view of committed BENCH_<n>.json points,
// the noise-banded diff between two points, and the schema checks CI runs on
// every bench emitter's output.
//
// A trajectory point ("schema_version": 1, one file per PR that moved a
// gated number) holds the bench_sweep matrix in its "sweep" section: cells
// of {net x grid x link x pool budget x schedule} whose every metric records
// {median, lo, hi, n} over R repeats. Optional "stream_overlap" and
// "prefetch_lookahead" sections carry those benches' single-shot rows. All
// sections normalize into one flat cell-key -> metric -> stat map, which is
// what the diff joins on.
//
// The diff classifies each gated metric's delta against a noise band built
// from the RECORDED dispersion (max of both sides' hi-lo spreads) with a
// relative floor — the band is data carried by the baseline, not a constant
// baked into CI. Lower-is-better metrics (seconds, bubble_frac, exposed
// collective, stalls) and higher-is-better ones (img_per_s, overlap_ratio)
// gate; bookkeeping metrics (byte counters, busy-seconds occupancy, picked
// lookahead) are reported as info drift but never fail the gate — a byte
// count is a behaviour change to read about, not a regression by itself.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/json_reader.hpp"

namespace sn::util {
class JsonWriter;
}

namespace sn::perf {

/// Raised on malformed / mixed-schema trajectory input; the message names
/// the file, the offending cell/section and what was expected.
class TrajectoryError : public std::runtime_error {
 public:
  explicit TrajectoryError(const std::string& what) : std::runtime_error(what) {}
};

/// One metric's recorded statistics: median over n repeats plus the min/max
/// dispersion envelope. Single-shot rows collapse to lo == hi.
struct MetricStat {
  double median = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  int repeats = 1;

  double spread() const { return hi - lo; }
};

enum class MetricKind {
  kLowerBetter,   ///< gated: smaller is an improvement (seconds, stalls, ...)
  kHigherBetter,  ///< gated: larger is an improvement (img_per_s, overlap)
  kInfo,          ///< reported drift only (byte counters, occupancy, picks)
};

/// Gate direction for a metric name (see file comment for the policy).
MetricKind metric_kind(const std::string& name);

struct TrajectoryPoint {
  int point = 0;       ///< "trajectory_point"
  std::string origin;  ///< file name, for error messages
  /// Canonical cell key (e.g. "sweep/ResNet50/pcie/s2r2m4/pool6/1f1b",
  /// "stream_overlap/AlexNet/b128") -> metric -> stat.
  std::map<std::string, std::map<std::string, MetricStat>> cells;
};

/// Normalize a parsed BENCH_<n>.json document. Throws TrajectoryError on
/// malformed or mixed-schema input (unknown sections, a missing or
/// unsupported schema_version, missing required fields).
TrajectoryPoint load_trajectory(const util::JsonValue& doc, const std::string& origin);

enum class DeltaClass {
  kRegression,   ///< gated metric moved the bad way beyond the band
  kRemoved,      ///< baseline cell/metric missing from the candidate
  kImprovement,  ///< gated metric moved the good way beyond the band
  kInfoChanged,  ///< info metric drifted (reported, never fails)
  kAdded,        ///< new cell/metric (new sweep coverage; never fails)
  kWithinBand,   ///< gated metric moved inside the noise band
  kUnchanged,
};

const char* delta_class_name(DeltaClass c);

struct DiffEntry {
  std::string cell;
  std::string metric;  ///< "*" for whole-cell added/removed entries
  DeltaClass cls = DeltaClass::kUnchanged;
  double base = 0.0;
  double cand = 0.0;
  double delta = 0.0;  ///< cand - base
  double rel = 0.0;    ///< delta / |base| (0 when base == 0)
  double band = 0.0;   ///< noise band the delta was judged against
};

struct DiffOptions {
  /// Relative noise-band floor: band >= rel_band * |baseline median|. The
  /// recorded dispersion widens the band beyond this, never narrows it.
  double rel_band = 0.02;
  /// Absolute band floor — keeps near-zero baselines (exposed collective
  /// seconds ~ 0) from flagging sub-microsecond jitter.
  double abs_band = 1e-4;
  /// Tolerate baseline cells/metrics missing from the candidate (baseline
  /// refresh flows that intentionally drop coverage).
  bool allow_missing = false;
};

struct DiffReport {
  std::vector<DiffEntry> entries;  ///< ranked: regressions first, then by |rel|
  int regressions = 0;
  int removed = 0;
  int improvements = 0;
  int info_changed = 0;
  int added = 0;
  int within_band = 0;
  int unchanged = 0;
  int baseline_point = 0;
  int candidate_point = 0;

  /// Gate verdict: no regression and (unless allowed) nothing removed.
  bool ok = true;
};

/// Join baseline and candidate by cell key and classify every metric delta.
DiffReport diff_trajectories(const TrajectoryPoint& base, const TrajectoryPoint& cand,
                             const DiffOptions& opt);

/// Ranked ASCII table of the report's notable entries (everything except
/// within-band / unchanged), plus a counts summary line.
std::string render_diff_table(const DiffReport& rep);

/// Machine-readable report ("kind": "trajectory_diff", schema_version 1).
void write_diff_report(const DiffReport& rep, const DiffOptions& opt, util::JsonWriter& w);

/// Validate a bench/tool JSON document against its expected shape; returns
/// the row/cell/event count, throws TrajectoryError naming the violation.
/// Kinds: stream_overlap, prefetch_lookahead, sweep, trajectory,
/// chrome_trace, metrics, diff_report, trace_diff_report, cost_profile.
size_t schema_check(const util::JsonValue& doc, const std::string& kind,
                    const std::string& origin);

}  // namespace sn::perf
