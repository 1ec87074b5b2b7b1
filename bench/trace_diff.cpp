// trace_diff: align two Chrome-trace exports span by span (schedule-op
// identity: k-th occurrence of (device, stream, category, name) matches
// across files, since the column-schedule engine replays a deterministic op
// list) and attribute the wall-time delta to compute / transfer / collective
// / stall-by-source buckets. The CI perf-gate runs this whenever
// trajectory_diff flags an out-of-band regression, so the uploaded report
// names the bucket that moved, not just the cell.
//
// Usage:
//   trace_diff --baseline A.trace.json --candidate B.trace.json
//              [--report OUT.json] [--movers N] [--quiet]
//
// Exit codes: 0 = diff computed (a delta is information, not a failure —
// gating stays with trajectory_diff's noise bands); 2 = usage, I/O or parse
// error (including a --movers value that is not a whole integer >= 1).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/cli_args.hpp"
#include "obs/trace_diff.hpp"
#include "util/json_reader.hpp"

using namespace sn;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline A.trace.json --candidate B.trace.json\n"
               "          [--report OUT.json] [--movers N] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline, candidate, report_path;
  size_t movers = 10;
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
    if (std::strcmp(a, "--baseline") == 0) {
      baseline = next(a);
    } else if (std::strcmp(a, "--candidate") == 0) {
      candidate = next(a);
    } else if (std::strcmp(a, "--report") == 0) {
      report_path = next(a);
    } else if (std::strcmp(a, "--movers") == 0) {
      movers = bench::parse_count(a, next(a), 1, INT_MAX);
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", a);
      return usage(argv[0]);
    }
  }
  if (baseline.empty() || candidate.empty()) return usage(argv[0]);

  obs::TraceDiffReport rep;
  try {
    rep = obs::diff_trace_files(baseline, candidate, movers);
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "trace_diff: %s\n", e.what());
    return 2;
  }

  if (!quiet) std::fputs(rep.render_table().c_str(), stdout);
  if (!report_path.empty()) {
    if (!rep.save(report_path)) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 2;
    }
    if (!quiet) std::printf("wrote %s\n", report_path.c_str());
  }
  return 0;
}
