// bench_hybrid_grid: sweep the S x R hybrid device grid over the zoo and
// compare against the pure-data-parallel (1 x R) and pure-pipeline (S x 1)
// baselines at matched and unmatched device counts. Every config, baselines
// included, runs on dist::HybridParallelTrainer; each row's iteration time
// spans forward, backward, all-reduce and the SGD step.
//
// The hybrid grid's pitch: capacity (pipeline depth S) and throughput
// (replica width R) scale along INDEPENDENT axes. A 2x2 grid halves every
// device's batch relative to the 2x1 pipeline (less compute and less
// re-materialization per stage) and halves every device's net relative to
// the 1x2 data-parallel row (smaller stages, per-stage all-reduce over
// disjoint links) — so at 4 devices it must beat BOTH 2-device baselines on
// simulated throughput. The bench gates on exactly that for at least one
// zoo net (the acceptance criterion), and reports bubble fraction,
// all-reduce seconds and P2P volume per config.
//
// The schedule axis compares GPipe (all-reduce after the full drain) with
// 1F1B + gradient buckets (each stage's all-reduce issued bucket-by-bucket
// the moment its last microbatch retires, overlapping the upstream drain).
// allreduce_exposed_seconds is the collective time left sticking out past
// the drain; the bench gates on 1F1B exposing less than GPipe.
//
// With --repeats N every measured config runs N times and each JSON row
// carries {repeats, seconds_lo, seconds_hi} alongside the median "seconds",
// so the committed trajectory point records its own noise band for
// trajectory_diff to judge future deltas against.
//
//   ./bench_hybrid_grid [--json out.json] [--schedule gpipe|1f1b|both]
//                       [--repeats N]
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
  std::string kind;  ///< "single" | "dp" | "pipeline" | "hybrid"
  std::string schedule;
  int stages = 1;
  int replicas = 1;
  int microbatches = 1;
  double seconds = 0.0;
  double img_per_s = 0.0;
  double bubble_seconds = 0.0;
  double allreduce_seconds = 0.0;
  double allreduce_exposed_seconds = 0.0;
  uint64_t p2p_bytes = 0;
  int repeats = 1;
  double seconds_lo = 0.0;
  double seconds_hi = 0.0;
};

/// Re-run the config repeats-1 more times via run_once (returning seconds),
/// then record median + extremes on the row. The table and gates use the
/// first run's full stats; the JSON row records the dispersion.
template <class RunOnce>
void add_dispersion(Row* r, int repeats, int global_batch, RunOnce run_once) {
  std::vector<double> samples{r->seconds};
  for (int i = 1; i < repeats; ++i) samples.push_back(run_once());
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  r->repeats = static_cast<int>(n);
  r->seconds = n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  r->seconds_lo = samples.front();
  r->seconds_hi = samples.back();
  r->img_per_s = global_batch / r->seconds;
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

  const int kGlobalBatch = 32, kIters = 2, kMicrobatches = 8;
  const char* nets[] = {"VGG16", "ResNet50", "InceptionV4"};
  struct GridCfg {
    int stages, replicas;
  };
  const GridCfg grids[] = {{2, 2}, {2, 4}, {4, 2}};

  std::printf(
      "=== hybrid S x R grid vs pure-DP / pure-pipeline (global batch %d, TITAN-Xp NVLink "
      "sim) ===\n\n",
      kGlobalBatch);
  util::Table t({"network", "config", "schedule", "devices", "iter (ms)", "img/s", "bubble_frac",
                 "allreduce (ms)", "ar exposed (ms)", "p2p_bytes (MB)"});
  std::vector<Row> rows;
  // allreduce_exposed_seconds keyed by (net, stages, replicas, schedule) for
  // the overlap gate.
  std::map<std::tuple<std::string, int, int, std::string>, double> exposed_by_cfg;
  bool grid_wins = false;

  for (const char* name : nets) {
    double dp2_imgs = 0.0, pipe2_imgs = 0.0;
    auto factory = [&](int batch) { return bench::build_network(name, batch); };

    // Single-device baseline: the same net over the combined batch.
    {
      sim::ClusterSpec cs = sim::nvlink_cluster_spec(1);
      auto net = bench::build_network(name, kGlobalBatch);
      auto st = bench::run_sim_iteration(*net, sim_options(cs));
      Row r{name, "single", "-", 1, 1, 1, st.seconds, kGlobalBatch / st.seconds,
            0.0,  0.0,      0.0, 0};
      add_dispersion(&r, repeats, kGlobalBatch, [&] {
        auto n2 = bench::build_network(name, kGlobalBatch);
        return bench::run_sim_iteration(*n2, sim_options(cs)).seconds;
      });
      rows.push_back(r);
      t.add_row({name, "1 device", "-", "1", util::format_double(r.seconds * 1e3, 1),
                 util::format_double(r.img_per_s, 1), "0.000", "0.00", "0.00", "0.0"});
    }
    auto grid_config = [&](int stages, int replicas, int microbatches,
                           dist::SchedulePolicy policy) {
      dist::HybridParallelConfig cfg;
      cfg.stages = stages;
      cfg.replicas = replicas;
      cfg.microbatches = microbatches;
      cfg.global_batch = kGlobalBatch;
      cfg.cluster = sim::nvlink_cluster_spec(stages * replicas);
      cfg.train.iterations = kIters;
      cfg.schedule = policy;
      return cfg;
    };
    auto run_grid = [&](const dist::HybridParallelConfig& cfg) {
      dist::HybridParallelTrainer hyb(factory, sim_options(cfg.cluster), cfg);
      return hyb.run();
    };
    // Standard pipeline-bubble fraction: span in excess of the bottleneck
    // cell's own busy time (matches bench_pipeline_stages).
    auto bubble_frac = [](const dist::HybridParallelReport& rep) {
      const auto& st = rep.stats.back();
      double busy_max = 0.0;
      for (const auto& row_st : rep.cell_stats.back()) {
        for (const auto& cs : row_st) {
          busy_max = std::max(busy_max, cs.seconds - cs.bubble_seconds);
        }
      }
      return (st.seconds - busy_max) / st.seconds;
    };

    // Pure data parallelism: 1 x 2.
    {
      const auto cfg = grid_config(1, 2, 1, dist::SchedulePolicy::kGPipe);
      const auto st = run_grid(cfg).stats.back();
      Row r{name,       "dp", "-",
            1,          2,    1,
            st.seconds, kGlobalBatch / st.seconds,
            0.0,        st.allreduce_seconds,
            0.0,        st.p2p_bytes};
      add_dispersion(&r, repeats, kGlobalBatch,
                     [&] { return run_grid(cfg).stats.back().seconds; });
      rows.push_back(r);
      dp2_imgs = r.img_per_s;
      t.add_row({name, "1 x 2 (pure DP)", "-", "2", util::format_double(r.seconds * 1e3, 1),
                 util::format_double(r.img_per_s, 1), "0.000",
                 util::format_double(r.allreduce_seconds * 1e3, 2), "0.00",
                 util::format_double(static_cast<double>(r.p2p_bytes) / 1048576.0, 1)});
    }
    // Pure pipeline: 2 x 1.
    {
      const auto cfg = grid_config(2, 1, kMicrobatches, dist::SchedulePolicy::kGPipe);
      const auto rep = run_grid(cfg);
      const auto& st = rep.stats.back();
      Row r{name,       "pipeline", "-",
            2,          1,          kMicrobatches,
            st.seconds, kGlobalBatch / st.seconds,
            st.bubble_seconds, 0.0,
            0.0,        st.p2p_bytes};
      add_dispersion(&r, repeats, kGlobalBatch,
                     [&] { return run_grid(cfg).stats.back().seconds; });
      rows.push_back(r);
      pipe2_imgs = r.img_per_s;
      t.add_row({name, "2 x 1 (pure pipeline)", "-", "2",
                 util::format_double(r.seconds * 1e3, 1), util::format_double(r.img_per_s, 1),
                 util::format_double(bubble_frac(rep), 3), "0.00", "0.00",
                 util::format_double(static_cast<double>(r.p2p_bytes) / 1048576.0, 1)});
    }
    // Hybrid grids, one run per schedule policy.
    for (const GridCfg& g : grids) {
      for (dist::SchedulePolicy policy : policies) {
        const char* pname = dist::schedule_policy_name(policy);
        const auto cfg = grid_config(g.stages, g.replicas, kMicrobatches, policy);
        const auto rep = run_grid(cfg);
        const auto& st = rep.stats.back();
        Row r{name,       "hybrid",  pname,
              g.stages,   g.replicas, kMicrobatches,
              st.seconds, kGlobalBatch / st.seconds,
              st.bubble_seconds, st.allreduce_seconds,
              st.allreduce_exposed_seconds, st.p2p_bytes};
        add_dispersion(&r, repeats, kGlobalBatch,
                       [&] { return run_grid(cfg).stats.back().seconds; });
        rows.push_back(r);
        exposed_by_cfg[{name, g.stages, g.replicas, pname}] = r.allreduce_exposed_seconds;
        if (g.stages == 2 && g.replicas == 2 && r.img_per_s > dp2_imgs &&
            r.img_per_s > pipe2_imgs) {
          grid_wins = true;
        }
        t.add_row({name,
                   std::to_string(g.stages) + " x " + std::to_string(g.replicas) + " hybrid",
                   pname, std::to_string(g.stages * g.replicas),
                   util::format_double(r.seconds * 1e3, 1), util::format_double(r.img_per_s, 1),
                   util::format_double(bubble_frac(rep), 3),
                   util::format_double(r.allreduce_seconds * 1e3, 2),
                   util::format_double(r.allreduce_exposed_seconds * 1e3, 2),
                   util::format_double(static_cast<double>(r.p2p_bytes) / 1048576.0, 1)});
      }
    }
  }
  t.print();
  std::printf(
      "\n2 x 2 hybrid vs both 2-device baselines (shallower per-device batch than the\n"
      "pure pipeline, smaller per-device net than pure DP): %s\n",
      grid_wins ? "WINS for at least one net" : "NEVER WINS (gate violated)");

  // Overlap gate: bucketed 1F1B issues each stage's all-reduce as soon as
  // its last microbatch retires, so the collective time exposed past the
  // drain must come in below GPipe's post-drain synchronous pass.
  bool overlap_ok = true;
  if (policies.size() == 2) {
    bool strict_win = false;
    for (const char* name : nets) {
      for (const GridCfg& g : grids) {
        double eg = exposed_by_cfg[{name, g.stages, g.replicas, "gpipe"}];
        double e1 = exposed_by_cfg[{name, g.stages, g.replicas, "1f1b"}];
        if (e1 > eg) {
          overlap_ok = false;
          std::printf("!! %s %dx%d: 1f1b exposed %.3fms > gpipe %.3fms\n", name, g.stages,
                      g.replicas, e1 * 1e3, eg * 1e3);
        }
        if (eg > 0.0 && e1 < eg) strict_win = true;
      }
    }
    if (!strict_win) {
      overlap_ok = false;
      std::printf("!! no config with gpipe exposure showed a strict 1f1b reduction\n");
    }
    std::printf("1f1b bucket overlap exposes less all-reduce than gpipe: %s\n",
                overlap_ok ? "CONFIRMED" : "VIOLATED");
  }

  if (json_path) {
    util::JsonWriter w;
    w.begin_object();
    w.key("global_batch").value(kGlobalBatch);
    w.key("configs").begin_array();
    for (const Row& r : rows) {
      w.begin_object(util::JsonWriter::kInline);
      w.key("net").value(r.net);
      w.key("kind").value(r.kind);
      w.key("schedule").value(r.schedule);
      w.key("stages").value(r.stages);
      w.key("replicas").value(r.replicas);
      w.key("microbatches").value(r.microbatches);
      w.key("seconds").value_sci(r.seconds, 6);
      w.key("repeats").value(r.repeats);
      w.key("seconds_lo").value_sci(r.seconds_lo, 6);
      w.key("seconds_hi").value_sci(r.seconds_hi, 6);
      w.key("img_per_s").value_fixed(r.img_per_s, 2);
      w.key("bubble_seconds").value_sci(r.bubble_seconds, 6);
      w.key("allreduce_seconds").value_sci(r.allreduce_seconds, 6);
      w.key("allreduce_exposed_seconds").value_sci(r.allreduce_exposed_seconds, 6);
      w.key("p2p_bytes").value(r.p2p_bytes);
      w.end_object();
    }
    w.end_array().end_object();
    if (!w.save(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  return (grid_wins && overlap_ok) ? 0 : 1;
}
