// trajectory_diff: join two committed BENCH_<n>.json perf-trajectory points
// by cell key, classify every metric delta against the recorded noise band,
// print the ranked delta table, optionally write a machine-readable report,
// and exit nonzero on any out-of-band regression (or a baseline cell the
// candidate silently dropped). CI runs this instead of eyeballing numbers:
// PR N+1 cannot silently regress PR N's win.
//
// Also the schema gate for every bench emitter: --schema-check replaces the
// ad-hoc `grep -q` checks CI used to run against bench JSON — the document
// is parsed and validated structurally, so a truncated file or a renamed
// field fails with the offending path named instead of slipping past a
// byte-pattern.
//
// Usage:
//   trajectory_diff --baseline A.json --candidate B.json
//                   [--report OUT.json] [--rel-band F] [--abs-band F]
//                   [--allow-missing] [--quiet]
//   trajectory_diff --schema-check KIND FILE [KIND FILE ...]
//     KIND: stream_overlap | prefetch_lookahead | sweep | trajectory |
//           chrome_trace | metrics | diff_report | trace_diff_report |
//           cost_profile
//
// Exit codes: 0 = gate passed; 1 = regression / removed cells; 2 = usage,
// I/O, parse or schema error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perf/trajectory.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

using namespace sn;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline A.json --candidate B.json [--report OUT.json]\n"
               "          [--rel-band F] [--abs-band F] [--allow-missing] [--quiet]\n"
               "       %s --schema-check KIND FILE [KIND FILE ...]\n",
               argv0, argv0);
  return 2;
}

/// Whole-string parse of a band; exits 2 on anything else, so a typo such as
/// "--rel-band abc" cannot silently tighten the gate to 0.
double parse_band(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "%s wants a number, got \"%s\"\n", flag, text);
    std::exit(2);
  }
  return v;
}

int run_schema_checks(int argc, char** argv, int i) {
  if (i >= argc || (argc - i) % 2 != 0) {
    std::fprintf(stderr, "--schema-check wants KIND FILE pairs\n");
    return 2;
  }
  for (; i + 1 < argc; i += 2) {
    const std::string kind = argv[i];
    const std::string path = argv[i + 1];
    try {
      util::JsonValue doc = util::parse_json_file(path);
      size_t n = perf::schema_check(doc, kind, path);
      std::printf("SCHEMA OK %s %s (%zu entries)\n", kind.c_str(), path.c_str(), n);
    } catch (const util::JsonError& e) {
      std::fprintf(stderr, "SCHEMA FAIL %s %s: %s\n", kind.c_str(), path.c_str(), e.what());
      return 2;
    } catch (const perf::TrajectoryError& e) {
      std::fprintf(stderr, "SCHEMA FAIL %s %s: %s\n", kind.c_str(), path.c_str(), e.what());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline, candidate, report_path;
  perf::DiffOptions opt;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--schema-check") == 0) {
      return run_schema_checks(argc, argv, i + 1);
    } else if (std::strcmp(a, "--baseline") == 0) {
      baseline = next(a);
    } else if (std::strcmp(a, "--candidate") == 0) {
      candidate = next(a);
    } else if (std::strcmp(a, "--report") == 0) {
      report_path = next(a);
    } else if (std::strcmp(a, "--rel-band") == 0) {
      opt.rel_band = parse_band(a, next(a));
    } else if (std::strcmp(a, "--abs-band") == 0) {
      opt.abs_band = parse_band(a, next(a));
    } else if (std::strcmp(a, "--allow-missing") == 0) {
      opt.allow_missing = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", a);
      return usage(argv[0]);
    }
  }
  if (baseline.empty() || candidate.empty()) return usage(argv[0]);
  if (opt.rel_band < 0.0 || opt.abs_band < 0.0) {
    std::fprintf(stderr, "bands must be non-negative\n");
    return 2;
  }

  perf::TrajectoryPoint base, cand;
  try {
    base = perf::load_trajectory(util::parse_json_file(baseline), baseline);
    cand = perf::load_trajectory(util::parse_json_file(candidate), candidate);
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "trajectory_diff: %s\n", e.what());
    return 2;
  } catch (const perf::TrajectoryError& e) {
    std::fprintf(stderr, "trajectory_diff: %s\n", e.what());
    return 2;
  }

  perf::DiffReport rep = perf::diff_trajectories(base, cand, opt);
  if (!quiet) {
    std::printf("=== perf trajectory: %s (point %d) -> %s (point %d) ===\n\n", baseline.c_str(),
                base.point, candidate.c_str(), cand.point);
    std::fputs(perf::render_diff_table(rep).c_str(), stdout);
  }
  // Regressions always also go to stderr, one line per offender, so a CI log
  // names every out-of-band cell even when the table scrolls away.
  for (const perf::DiffEntry& e : rep.entries) {
    if (e.cls == perf::DeltaClass::kRegression) {
      std::fprintf(stderr, "REGRESSION %s %s: %g -> %g (delta %+g, band %g)\n", e.cell.c_str(),
                   e.metric.c_str(), e.base, e.cand, e.delta, e.band);
    } else if (e.cls == perf::DeltaClass::kRemoved && !opt.allow_missing) {
      std::fprintf(stderr, "MISSING %s %s: present in baseline, absent from candidate\n",
                   e.cell.c_str(), e.metric.c_str());
    }
  }

  if (!report_path.empty()) {
    util::JsonWriter w;
    perf::write_diff_report(rep, opt, w);
    if (!w.save(report_path)) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 2;
    }
    if (!quiet) std::printf("wrote %s\n", report_path.c_str());
  }
  return rep.ok ? 0 : 1;
}
