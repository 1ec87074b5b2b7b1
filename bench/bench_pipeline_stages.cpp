// bench_pipeline_stages: sweep pipeline stages x microbatches x schedule over
// the zoo and compare against the single-device and data-parallel baselines.
// Every distributed config is a dist::HybridParallelTrainer grid: S x 1 for
// the pipeline, 1 x S for the data-parallel baseline.
//
// The pipeline's fill/drain ramps idle (S-1) microbatch slots per stage
// regardless of M, so the bubble fraction must shrink as microbatches grow
// (GPipe's law); the bench gates on that for the 2-stage configs. The 1F1B
// (PipeDream-flush) schedule drains each microbatch as soon as its backward
// is ready AND never re-materializes the last stage's forward (the backward
// directly follows it), so whenever the pipe is deep in microbatches
// (M >= 2S) its bubble fraction must come in strictly below GPipe's at the
// same (S, M) — the bench gates on that too.
//
// bubble_frac follows the standard pipeline-bubble definition: the span in
// excess of the bottleneck stage's own busy time, (span - max_s busy_s) /
// span — for a balanced pipe this is the classic (S-1)/(M+S-1). Summed
// receiver-side stall seconds (IterationStats::bubble_seconds, what the
// fill/steady/drain phase split attributes) are reported alongside, but make
// a poor cross-schedule gate: 1F1B does strictly less work per iteration
// (no last-stage remat), and at a fixed bottleneck every saved second shows
// up as a stall on some non-critical stage. Per-config telemetry comes
// straight from IterationStats: bubble_seconds (compute stalled on a
// pipeline neighbor), p2p_bytes / p2p_seconds (boundary activation +
// gradient streaming).
//
// With --repeats N every measured config runs N times and each JSON row
// carries {repeats, seconds_lo, seconds_hi} alongside the median "seconds",
// so the committed trajectory point records its own noise band for
// trajectory_diff to judge future deltas against.
//
//   ./bench_pipeline_stages [--json out.json] [--schedule gpipe|1f1b|both]
//                           [--repeats N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.hpp"
#include "dist/hybrid_parallel.hpp"
#include "util/json_writer.hpp"

using namespace sn;

namespace {

struct Row {
  std::string net;
  std::string schedule;
  int stages = 1;
  int microbatches = 1;
  double seconds = 0.0;
  double bubble_seconds = 0.0;
  double bubble_frac = 0.0;
  uint64_t p2p_bytes = 0;
  double p2p_seconds = 0.0;
  int repeats = 1;
  double seconds_lo = 0.0;
  double seconds_hi = 0.0;
};

/// Median + extremes over per-repeat samples; the table and gates use the
/// first repeat's full stats, the JSON row records the dispersion.
void fill_dispersion(Row* r, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  r->repeats = static_cast<int>(n);
  r->seconds = n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  r->seconds_lo = samples.front();
  r->seconds_hi = samples.back();
}

core::RuntimeOptions sim_options(const sim::ClusterSpec& cluster) {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons, cluster.device);
  o.real = false;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::string sched_arg = "both";
  int repeats = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--schedule") == 0) sched_arg = argv[i + 1];
    if (std::strcmp(argv[i], "--repeats") == 0) repeats = std::atoi(argv[i + 1]);
  }
  if (repeats < 1) {
    std::fprintf(stderr, "--repeats must be >= 1\n");
    return 1;
  }
  std::vector<dist::SchedulePolicy> policies;
  if (sched_arg == "gpipe" || sched_arg == "both") {
    policies.push_back(dist::SchedulePolicy::kGPipe);
  }
  if (sched_arg == "1f1b" || sched_arg == "both") {
    policies.push_back(dist::SchedulePolicy::k1F1B);
  }
  if (policies.empty()) {
    std::fprintf(stderr, "unknown --schedule %s (want gpipe|1f1b|both)\n", sched_arg.c_str());
    return 1;
  }

  const int kGlobalBatch = 32, kIters = 2;
  const char* nets[] = {"VGG16", "ResNet50", "InceptionV4"};
  const int stage_sweep[] = {2, 4};
  const int microbatch_sweep[] = {2, 4, 8};

  std::printf("=== pipeline stages x microbatches (global batch %d, TITAN-Xp NVLink sim) ===\n\n",
              kGlobalBatch);
  util::Table t({"network", "config", "schedule", "iter (ms)", "img/s", "bubble_seconds (ms)",
                 "bubble_frac", "p2p_bytes (MB)", "p2p busy (ms)"});
  std::vector<Row> rows;
  // bubble_frac keyed by (net, stages, microbatches, schedule) for the
  // cross-schedule gate.
  std::map<std::tuple<std::string, int, int, std::string>, double> frac_by_cfg;
  bool shrink_ok = true;

  for (const char* name : nets) {
    // Single-device baseline: the same net over the combined batch.
    {
      sim::ClusterSpec cs = sim::nvlink_cluster_spec(1);
      std::vector<double> samples;
      for (int rep = 0; rep < repeats; ++rep) {
        auto net = bench::build_network(name, kGlobalBatch);
        samples.push_back(bench::run_sim_iteration(*net, sim_options(cs)).seconds);
      }
      Row r{name, "-", 1, 1, samples[0], 0.0, 0.0, 0, 0.0, 1, 0.0, 0.0};
      fill_dispersion(&r, samples);
      t.add_row({name, "1 device", "-", util::format_double(r.seconds * 1e3, 1),
                 util::format_double(kGlobalBatch / r.seconds, 1), "0.00", "0.000", "0.0",
                 "0.00"});
      rows.push_back(r);
    }
    for (int stages : stage_sweep) {
      // Data-parallel baseline at the same device count.
      {
        dist::HybridParallelConfig cfg;
        cfg.stages = 1;
        cfg.replicas = stages;
        cfg.microbatches = 1;
        cfg.global_batch = kGlobalBatch;
        cfg.cluster = sim::nvlink_cluster_spec(stages);
        cfg.train.iterations = kIters;
        auto factory = [&](int batch) { return bench::build_network(name, batch); };
        dist::HybridParallelTrainer dp(factory, sim_options(cfg.cluster), cfg);
        auto rep = dp.run();
        const auto& st = rep.stats.back();
        t.add_row({name, std::to_string(stages) + "-dev data-parallel", "-",
                   util::format_double(st.seconds * 1e3, 1),
                   util::format_double(kGlobalBatch / st.seconds, 1), "0.00", "0.000",
                   util::format_double(st.p2p_bytes / 1048576.0, 1), "0.00"});
      }
      for (dist::SchedulePolicy policy : policies) {
        const char* pname = dist::schedule_policy_name(policy);
        double frac_first = -1.0, frac_last = -1.0;
        for (int mb : microbatch_sweep) {
          std::vector<double> samples;
          Row r;
          for (int run = 0; run < repeats; ++run) {
            dist::HybridParallelConfig cfg;
            cfg.stages = stages;
            cfg.replicas = 1;
            cfg.microbatches = mb;
            cfg.global_batch = kGlobalBatch;
            cfg.cluster = sim::nvlink_cluster_spec(stages);
            cfg.train.iterations = kIters;
            cfg.schedule = policy;
            auto factory = [&](int batch) { return bench::build_network(name, batch); };
            dist::HybridParallelTrainer pipe(factory, sim_options(cfg.cluster), cfg);
            auto rep = pipe.run();
            const auto& st = rep.stats.back();
            samples.push_back(st.seconds);
            if (run > 0) continue;
            // Bottleneck stage busy time: per-stage span minus its stalls.
            double busy_max = 0.0;
            for (const auto& row : rep.cell_stats.back()) {
              busy_max = std::max(busy_max, row[0].seconds - row[0].bubble_seconds);
            }
            r = Row{name,          pname,
                    stages,        mb,
                    st.seconds,    st.bubble_seconds,
                    (st.seconds - busy_max) / st.seconds,
                    st.p2p_bytes,  st.p2p_seconds,
                    1,             0.0,
                    0.0};
          }
          fill_dispersion(&r, samples);
          rows.push_back(r);
          frac_by_cfg[{name, stages, mb, pname}] = r.bubble_frac;
          if (frac_first < 0) frac_first = r.bubble_frac;
          frac_last = r.bubble_frac;
          t.add_row({name, std::to_string(stages) + " stages x " + std::to_string(mb) + " ubatch",
                     pname, util::format_double(r.seconds * 1e3, 1),
                     util::format_double(kGlobalBatch / r.seconds, 1),
                     util::format_double(r.bubble_seconds * 1e3, 2),
                     util::format_double(r.bubble_frac, 3),
                     util::format_double(static_cast<double>(r.p2p_bytes) / 1048576.0, 1),
                     util::format_double(r.p2p_seconds * 1e3, 2)});
        }
        if (stages == 2 && policy == dist::SchedulePolicy::kGPipe && frac_last >= frac_first) {
          shrink_ok = false;
          std::printf("!! %s: 2-stage bubble_frac did not shrink (%f -> %f)\n", name, frac_first,
                      frac_last);
        }
      }
    }
  }
  t.print();
  std::printf("\nbubble_frac = (span - bottleneck stage busy) / span; GPipe predicts it\n"
              "falls as microbatches grow (fill/drain ramps amortize): %s\n",
              shrink_ok ? "CONFIRMED" : "VIOLATED");

  // Cross-schedule gate: with the pipe deep in microbatches (M >= 2S), the
  // 1F1B steady state starts draining during the fill ramp, so its bubble
  // fraction must beat GPipe's at the same shape.
  bool onef1b_ok = true;
  if (policies.size() == 2) {
    for (const char* name : nets) {
      for (int stages : stage_sweep) {
        for (int mb : microbatch_sweep) {
          if (mb < 2 * stages) continue;
          double fg = frac_by_cfg[{name, stages, mb, "gpipe"}];
          double f1 = frac_by_cfg[{name, stages, mb, "1f1b"}];
          if (f1 >= fg) {
            onef1b_ok = false;
            std::printf("!! %s %dx%d: 1f1b bubble_frac %.4f >= gpipe %.4f\n", name, stages, mb,
                        f1, fg);
          }
        }
      }
    }
    std::printf("1f1b bubble_frac < gpipe at every (S, M) with M >= 2S: %s\n",
                onef1b_ok ? "CONFIRMED" : "VIOLATED");
  }
  std::printf("(pipeline iterations re-materialize forwards at drain, so img/s trails the\n"
              "data-parallel baseline at equal devices; pipelining is for nets whose\n"
              "working set exceeds one device's pool.)\n");

  if (json_path) {
    util::JsonWriter w;
    w.begin_object();
    w.key("global_batch").value(kGlobalBatch);
    w.key("configs").begin_array();
    for (const Row& r : rows) {
      w.begin_object(util::JsonWriter::kInline);
      w.key("net").value(r.net);
      w.key("schedule").value(r.schedule);
      w.key("stages").value(r.stages);
      w.key("microbatches").value(r.microbatches);
      w.key("seconds").value_sci(r.seconds, 6);
      w.key("repeats").value(r.repeats);
      w.key("seconds_lo").value_sci(r.seconds_lo, 6);
      w.key("seconds_hi").value_sci(r.seconds_hi, 6);
      w.key("bubble_seconds").value_sci(r.bubble_seconds, 6);
      w.key("bubble_frac").value_fixed(r.bubble_frac, 4);
      w.key("p2p_bytes").value(r.p2p_bytes);
      w.key("p2p_seconds").value_sci(r.p2p_seconds, 6);
      w.end_object();
    }
    w.end_array().end_object();
    if (!w.save(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  return (shrink_ok && onef1b_ok) ? 0 : 1;
}
