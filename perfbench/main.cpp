// perfbench: wall-clock training benchmark over the public runtime API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --self-test
//
// One run, on one CPU (see schedule_on_one_cpu):
//   1. set-up: the workload is constructed several times; setup_s is the
//      median (the last instance is kept);
//   2. output check: the first iterations (also the warm-up, discarded from
//      timing) are compared bit for bit with a live oracle;
//   3. timed window of S seconds, closed loop, one iteration after another;
//      with --trace 1 untraced and traced half-second blocks alternate and
//      the conv/FC kernels are replayed afterwards;
//   4. mechanism assertions (does the workload hit what it is meant to);
//   5. the last line of stdout is one JSON object: correct, attempted,
//      failed and the metrics (end-to-end with --trace 0, per-layer with 1).
// The exit status is non-zero when any check failed.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

constexpr int kCheckIterations = 3;   // oracle prefix == warm-up iterations
constexpr int kSetupReps = 25;
constexpr double kSetupBudgetS = 3.0;  // stop repeating set-up past this
constexpr int kReplayReps = 3;
constexpr double kTraceBlockS = 0.5;  // traced / untraced alternation period

/// Runs the whole process on one CPU, the highest one it may use, under
/// SCHED_FIFO where that is permitted. Called first thing in main(), before
/// any thread exists, so every thread the runtime starts (kernel pool, DMA
/// and P2P workers, grid devices) inherits the mask and the policy.
///
/// The reason is a known defect of the program: util::ThreadPool::parallel_for
/// has a use-after-return race. Its last worker decrements the caller's
/// counter and only then locks the caller's stack-local done mutex, by which
/// time the caller may have seen the counter at zero and returned. With
/// workers on several cores this aborts most real-mode runs
/// (`mutex->__data.__owner == 0`) or hangs them. On one core the worker must
/// lose the core between those two steps: under the default policy a tick or
/// a wakeup can do that (one of about a hundred pinned runs hung). Under
/// SCHED_FIFO at one priority a thread runs until it blocks, so it cannot.
/// One core is also the steadier measurement on a shared host.
void schedule_on_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  bool pinned = false;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (!CPU_ISSET(c, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  if (!pinned) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU; running unpinned\n");
    return;
  }
  sched_param prio{};
  prio.sched_priority = sched_get_priority_min(SCHED_FIFO);
  if (sched_setscheduler(0, SCHED_FIFO, &prio) != 0)
    std::fprintf(stderr, "perfbench: SCHED_FIFO not permitted; default policy\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds out of range");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.self_test) return a;
  if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0) usage("missing arguments");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Operations attempted / failed, with the reason for each failure.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool aborted = false;  ///< an iteration threw: the session is unusable
  std::vector<std::string> problems;

  void assert_that(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back("mechanism check failed: " + what);
    }
  }
};

/// Closed-loop timed window: iterations back to back until `seconds` pass.
std::vector<IterRecord> timed_window(Session& s, Tracer& tr, double seconds, int64_t first_iter,
                                     Ledger* ledger) {
  std::vector<IterRecord> recs;
  const auto t0 = Clock::now();
  int64_t it = first_iter;
  while (!ledger->aborted && seconds_since(t0) < seconds) {
    ++ledger->attempted;
    try {
      IterRecord r = s.step(tr, it++);
      if (!std::isfinite(r.loss)) {
        ++ledger->failed;
        ledger->problems.push_back("non-finite loss at iteration " + std::to_string(it - 1));
      }
      recs.push_back(r);
    } catch (const sn::core::OomError& e) {
      ++ledger->failed;
      ledger->problems.push_back("OOM at iteration " + std::to_string(it - 1) + ": " + e.what);
      ledger->aborted = true;  // the session's state is no longer trustworthy
    } catch (const std::exception& e) {
      ++ledger->failed;
      ledger->problems.push_back("iteration " + std::to_string(it - 1) + " threw: " + e.what());
      ledger->aborted = true;
    }
  }
  return recs;
}

std::vector<double> walls(const std::vector<IterRecord>& recs) {
  std::vector<double> v;
  for (const auto& r : recs) v.push_back(r.wall_s);
  return v;
}

/// Median over iterations of one counter.
template <typename F>
double per_iter(const std::vector<IterRecord>& recs, F field) {
  std::vector<double> v;
  for (const auto& r : recs) v.push_back(static_cast<double>(field(r.stats)));
  return median(v);
}

/// Sum over iterations of one counter.
template <typename F>
double total(const std::vector<IterRecord>& recs, F field) {
  double sum = 0.0;
  for (const auto& r : recs) sum += static_cast<double>(field(r.stats));
  return sum;
}

/// Mechanism assertions: each workload must still exercise the layer it was
/// chosen for.
void check_mechanism(const std::string& name, const Session& s,
                     const std::vector<IterRecord>& recs, Ledger* ledger) {
  ledger->assert_that(!recs.empty(), "at least one timed iteration");
  uint64_t peak = 0, staged = 0, p2p = 0;
  uint64_t min_evict = UINT64_MAX, min_d2h = UINT64_MAX, min_replays = UINT64_MAX;
  for (const auto& r : recs) {
    const auto& st = r.stats;
    peak = std::max(peak, st.peak_mem);
    staged += st.peer_stage_count;
    p2p += st.p2p_bytes;
    min_evict = std::min<uint64_t>(min_evict, st.evictions);
    min_d2h = std::min<uint64_t>(min_d2h, st.bytes_d2h);
    min_replays = std::min<uint64_t>(min_replays, st.extra_forwards);
  }
  ledger->assert_that(peak <= s.capacity(), "peak device bytes within capacity");
  if (name == "real-pressure") {
    ledger->assert_that(min_evict > 0, "evictions on every iteration");
    ledger->assert_that(min_d2h > 0, "D2H offload traffic on every iteration");
    ledger->assert_that(min_replays > 0, "recompute replays on every iteration");
  } else if (name == "real-grid") {
    ledger->assert_that(staged > 0, "peer staging fired");
    ledger->assert_that(p2p > 0, "P2P traffic");
  }
}

void print_json(const Ledger& l, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += l.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(l.attempted);
  out += ", \"failed\": " + std::to_string(l.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const std::string& workload, const std::vector<Metric>& metrics) {
  std::printf("%-34s %-22s %s\n", ("workload " + workload).c_str(), "value", "unit");
  for (const auto& m : metrics)
    std::printf("  %-32s %-22.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int run(const Args& a) {
  Ledger ledger;
  std::unique_ptr<Session> session;

  // 1. set-up (repeated; median reported).
  std::vector<double> setups;
  const auto setup_t0 = Clock::now();
  const int reps = a.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    session.reset();
    const auto t0 = Clock::now();
    session = make_session(a.workload, a.seed);
    setups.push_back(seconds_since(t0));
    if (seconds_since(setup_t0) > kSetupBudgetS && setups.size() >= 3) break;
  }

  // 2. output check against the live oracle; doubles as warm-up.
  const CheckOutcome check = session->check_prefix(kCheckIterations, OracleFault::kNone);
  ledger.attempted += check.iterations;
  ledger.failed += check.failed;
  for (const auto& p : check.problems) ledger.problems.push_back("output check: " + p);

  // 3. timed window.
  Tracer tracer(false);
  std::vector<IterRecord> recs, traced;
  KernelTimes kt;
  bool have_kernels = false;
  if (!a.trace) {
    recs = timed_window(*session, tracer, a.seconds, kCheckIterations, &ledger);
  } else {
    // Untraced and traced blocks alternate, so both halves see the same drift
    // in the machine's speed; their medians give the tracing overhead.
    const auto t0 = Clock::now();
    for (int b = 0; !ledger.aborted && seconds_since(t0) < a.seconds; ++b) {
      tracer.set_enabled(b % 2 == 1);
      const int64_t next = kCheckIterations + static_cast<int64_t>(recs.size() + traced.size());
      const std::vector<IterRecord> got =
          timed_window(*session, tracer, kTraceBlockS, next, &ledger);
      (b % 2 ? traced : recs).insert((b % 2 ? traced : recs).end(), got.begin(), got.end());
    }
    tracer.set_enabled(true);
    have_kernels = !ledger.aborted;
    if (have_kernels) session->replay_kernels(tracer, kReplayReps, &kt);
    if (!a.trace_out.empty() && !tracer.write_json(a.trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  }

  // 4. mechanism assertions over every timed iteration.
  std::vector<IterRecord> all = recs;
  all.insert(all.end(), traced.begin(), traced.end());
  check_mechanism(a.workload, *session, all, &ledger);

  const std::vector<double> w = walls(recs);
  const double p50 = median(w);
  if (w.size() >= 8) {
    // Steadiness at a glance: drift across the window and where the loss went.
    const size_t q = w.size() / 4;
    std::printf("iteration wall p50, first / last quarter of the window: %.6g / %.6g s\n",
                median({w.begin(), w.begin() + static_cast<long>(q)}),
                median({w.end() - static_cast<long>(q), w.end()}));
    std::printf("loss, first / last timed iteration: %.6g / %.6g\n", recs.front().loss,
                recs.back().loss);
  }
  const double model_s = per_iter(all, [](const auto& s) { return s.seconds; });
  std::vector<Metric> m;
  if (!a.trace) {
    uint64_t peak = 0, host_peak = 0;
    for (const auto& r : recs) {
      peak = std::max(peak, r.stats.peak_mem);
      host_peak = std::max(host_peak, r.stats.host_peak);
    }
    // Throughput over the whole window: the machine's speed drifts over
    // seconds, and the mean over every iteration averages that drift best.
    double window_wall = 0.0;
    for (double x : w) window_wall += x;
    const double samples = static_cast<double>(w.size() * session->samples_per_step());
    const auto depth_t0 = Clock::now();
    const int depth = deepest_resnet_depth();
    std::printf("Table 4 depth search: %.3f s\n", seconds_since(depth_t0));
    m = {
        {"samples_per_s", window_wall > 0 ? samples / window_wall : 0.0, "1/s"},
        {"iter_s_p50", p50, "s"},
        {"iter_s_p90", percentile(w, 90.0), "s"},
        {"peak_device_bytes", static_cast<double>(peak), "bytes"},
        {"host_peak_bytes", static_cast<double>(host_peak), "bytes"},
        {"model_iter_s", model_s, "virtual-s"},
        {"max_resnet_depth", static_cast<double>(depth), "layers"},
        {"setup_s", median(setups), "s"},
    };
    const size_t beyond_p90 =
        w.size() - static_cast<size_t>(std::ceil(0.9 * static_cast<double>(w.size())));
    std::printf("timed iterations: %zu (iter_s_p90 has %zu samples beyond it%s)\n", w.size(),
                beyond_p90, beyond_p90 < 10 ? "; too few, lengthen --seconds" : "");
  } else {
    // Per-iteration self times over the traced window. Only the iteration
    // span has children, so every other span's self time is its duration.
    auto span_median = [&](const char* name) { return median(tracer.self_times(name)); };
    const double fwd = span_median("runtime.fwd"), bwd = span_median("runtime.bwd");
    const double run_s = span_median("dist.run");
    const double traced_p50 = median(walls(traced));
    const double kernel_s =
        kt.conv_fwd_s + kt.conv_bwd_data_s + kt.conv_bwd_filter_s + kt.fc_s;
    const double conv_s = kt.conv_fwd_s + kt.conv_bwd_data_s + kt.conv_bwd_filter_s;
    const double pass_base = session->grid() ? run_s : fwd + bwd;
    const double hits = total(all, [](const auto& s) { return s.cache_hits; });
    const double misses = total(all, [](const auto& s) { return s.cache_misses; });
    const double replays = per_iter(all, [](const auto& s) { return s.extra_forwards; });
    m = {
        {"train.fill_batch_s", span_median("train.fill_batch"), "s"},
        {"runtime.fwd_s", fwd, "s"},
        {"runtime.bwd_s", bwd, "s"},
        {"runtime.sgd_s", span_median("runtime.sgd"), "s"},
        {"dist.run_s", run_s, "s"},
        {"trace.iteration_self_s", span_median("iteration"), "s"},
        {"trace.iter_s_p50_untraced", p50, "s"},
        {"trace.iter_s_p50_traced", traced_p50, "s"},
        {"trace.overhead_ratio", p50 > 0 ? traced_p50 / p50 : 0.0, "ratio"},
        {"nn.conv_fwd_s", kt.conv_fwd_s, "s"},
        {"nn.conv_bwd_data_s", kt.conv_bwd_data_s, "s"},
        {"nn.conv_bwd_filter_s", kt.conv_bwd_filter_s, "s"},
        {"nn.fc_s", kt.fc_s, "s"},
        {"nn.conv_gflops", conv_s > 0 ? kt.conv_flops / conv_s / 1e9 : 0.0, "GFLOP/s"},
        {"nn.kernel_share", have_kernels && pass_base > 0 ? kernel_s / pass_base : 0.0, "ratio"},
        {"pool.evictions", per_iter(all, [](const auto& s) { return s.evictions; }), "count"},
        {"pool.allocs", per_iter(all, [](const auto& s) { return s.allocs; }), "count"},
        {"pool.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
        {"xfer.d2h_bytes", per_iter(all, [](const auto& s) { return s.bytes_d2h; }), "bytes"},
        {"xfer.h2d_bytes", per_iter(all, [](const auto& s) { return s.bytes_h2d; }), "bytes"},
        {"xfer.dma_copies", per_iter(all, [](const auto& s) { return s.dma_copies; }), "count"},
        {"xfer.stall_model_s", per_iter(all, [](const auto& s) { return s.stall_seconds; }),
         "virtual-s"},
        {"recompute.extra_forwards", replays, "count"},
        {"recompute.ratio", replays / static_cast<double>(session->forward_steps()), "ratio"},
        {"workspace.fast_algo_frac", paper_scale_fast_algo_frac(), "ratio"},
        {"dist.bubble_model_s", per_iter(all, [](const auto& s) { return s.bubble_seconds; }),
         "virtual-s"},
        {"dist.allreduce_exposed_model_s",
         per_iter(all, [](const auto& s) { return s.allreduce_exposed_seconds; }), "virtual-s"},
        {"dist.p2p_bytes", per_iter(all, [](const auto& s) { return s.p2p_bytes; }), "bytes"},
        {"dist.peer_stage_count", per_iter(all, [](const auto& s) { return s.peer_stage_count; }),
         "count"},
        {"sim.calib_ratio", model_s > 0 ? p50 / model_s : 0.0, "ratio"},
    };
    std::printf("untraced iterations: %zu, traced iterations: %zu, spans: %zu\n", recs.size(),
                traced.size(), tracer.spans().size());
  }

  print_table(a.workload, m);
  for (const auto& p : ledger.problems) std::printf("FAILED: %s\n", p.c_str());
  print_json(ledger, m);
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  schedule_on_one_cpu();
  const Args a = parse(argc, argv);
  try {
    if (a.self_test) return self_test();
    return run(a);
  } catch (const sn::core::OomError& e) {
    std::fprintf(stderr, "perfbench: out of device memory: %s\n", e.what.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
