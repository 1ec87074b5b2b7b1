// bench_sweep: run the declared {net x grid geometry x link spec x pool
// budget} matrix (bench/sweep_config.hpp) with R repeats
// per cell and emit one schema-versioned sweep document — the "sweep"
// section of a committed BENCH_<n>.json trajectory point.
//
// Every metric records {median, lo, hi, n} over the repeats, so the noise
// band trajectory_diff judges future deltas against is data carried by the
// baseline, not a constant baked into CI. (The simulator is virtual-time
// deterministic, so lo == hi today — the dispersion machinery is what keeps
// the gate honest the day a wall-clock-coupled metric joins the sweep.)
//
// Every cell runs through dist::HybridParallelTrainer: S=1/R=1 degenerate to
// microbatched data parallelism, the plain pipeline, or a single device, so
// all four geometries share one accounting path.
//
// After the sweep, bench/sweep_checks.hpp asserts the pipeline and grid
// claims over the cells (the 2-stage bubble shrinks with M, the 2x2 grid
// beats the 2-device baselines), prints the cells each check compared, and
// exits 1 on a violation. The demo tier declares none of those cells and
// skips them.
//
//   ./bench_sweep [--json out.json] [--tier small|full|demo] [--repeats N]
//                 [--point N] [--seed S] [--peer-staging auto|on|off]
//                 [--trace-out DIR]
//
// --peer-staging overrides the per-cell peer_staging spec: "off" forces the
// pure-host offload path everywhere (the A/B baseline for the staging demo
// cells), "on" enables staging for every multi-device cell, "auto" (default)
// runs each cell as declared. Cell keys do not encode the mode, so two runs
// of the same tier diff cleanly against each other.
//
// --trace-out DIR writes one deterministic Chrome-trace JSON per cell
// (first repeat, wall stamps stripped) named after the cell key, so the CI
// perf-gate can trace_diff a regressed cell against the baseline capture
// without any source edits.
//
// Exit codes: 0 = swept and every check held; 1 = a check failed or a file
// could not be written; 2 = bad arguments.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "bench/sweep_checks.hpp"
#include "dist/hybrid_parallel.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

using namespace sn;

namespace {

sim::ClusterSpec cluster_for(const bench::SweepCellSpec& s) {
  int devices = s.stages * s.replicas;
  if (s.link == "nvlink") return sim::nvlink_cluster_spec(devices);
  if (s.link == "pcie") return sim::pcie_cluster_spec(devices);
  throw std::invalid_argument("unknown link spec " + s.link);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* trace_dir = nullptr;
  std::string tier = "small";
  std::string staging_mode = "auto";
  int repeats = 3;
  int point = 9;
  uint64_t data_seed = 1234;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--json") == 0) {
      json_path = next(a);
    } else if (std::strcmp(a, "--trace-out") == 0) {
      trace_dir = next(a);
    } else if (std::strcmp(a, "--tier") == 0) {
      tier = next(a);
    } else if (std::strcmp(a, "--repeats") == 0) {
      repeats = static_cast<int>(bench::parse_count(a, next(a), 0, INT_MAX));
    } else if (std::strcmp(a, "--point") == 0) {
      point = static_cast<int>(bench::parse_count(a, next(a), 0, INT_MAX));
    } else if (std::strcmp(a, "--seed") == 0) {
      data_seed = bench::parse_count(a, next(a), 0, UINT64_MAX);
    } else if (std::strcmp(a, "--peer-staging") == 0) {
      staging_mode = next(a);
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", a);
      return 2;
    }
  }
  if (repeats < 1) {
    std::fprintf(stderr, "--repeats must be >= 1\n");
    return 2;
  }
  if (staging_mode != "auto" && staging_mode != "on" && staging_mode != "off") {
    std::fprintf(stderr, "--peer-staging must be auto|on|off\n");
    return 2;
  }
  if (trace_dir) ::mkdir(trace_dir, 0755);  // existing directory is fine

  const int kGlobalBatch = 32, kIters = 2;
  std::vector<bench::SweepCellSpec> matrix;
  try {
    matrix = bench::sweep_matrix(tier);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("=== config sweep: %zu cells, tier %s, %d repeat(s), global batch %d ===\n\n",
              matrix.size(), tier.c_str(), repeats, kGlobalBatch);
  util::Table t({"net", "link", "grid", "pool", "schedule", "iter (ms)", "img/s",
                 "bubble (ms)", "bubble_frac", "ar exposed (ms)", "staged"});

  std::vector<bench::SweepCellResult> results;
  for (const bench::SweepCellSpec& spec : matrix) {
    bench::SweepCellResult cell{spec, {}};
    for (const char* name : {"seconds", "img_per_s", "stall_seconds", "bubble_seconds",
                             "allreduce_seconds", "allreduce_exposed_seconds", "p2p_bytes",
                             "peer_stage_count"}) {
      cell.samples.emplace_back(name, std::vector<double>{});
    }
    // By-name append; late-appearing names (bubble_frac, the per-link
    // occupancy metrics) register on first use. The simulator is deterministic, so every repeat
    // touches the same link set and the sample vectors stay rectangular.
    auto push = [&cell](const std::string& name, double v) {
      for (auto& [n, s] : cell.samples) {
        if (n == name) {
          s.push_back(v);
          return;
        }
      }
      cell.samples.emplace_back(name, std::vector<double>{v});
    };

    const int devices = spec.stages * spec.replicas;
    // bubble_frac measures how well M microbatches amortize the pipeline's
    // fill/drain ramps, so only pipelined cells record it. A one-microbatch
    // pipe has no ramp to amortize: its idle share moves with every stall
    // on the bottleneck stage (peer staging cuts them), which seconds and
    // stall_seconds already gate.
    const bool pipelined = spec.stages > 1 && spec.microbatches > 1;
    for (int rep = 0; rep < repeats; ++rep) {
      dist::HybridParallelConfig cfg;
      cfg.stages = spec.stages;
      cfg.replicas = spec.replicas;
      cfg.microbatches = spec.microbatches;
      cfg.global_batch = kGlobalBatch;
      cfg.cluster = cluster_for(spec);
      cfg.train.iterations = kIters;
      cfg.train.data_seed = data_seed;
      cfg.peer_staging = staging_mode == "on"    ? devices > 1
                         : staging_mode == "off" ? false
                                                 : spec.peer_staging;
      core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons,
                                                 cfg.cluster.device);
      o.real = false;
      o.device_capacity = static_cast<uint64_t>(spec.pool_gb) << 30;
      auto factory = [&](int batch) { return bench::build_network(spec.net, batch); };
      dist::HybridParallelTrainer trainer(factory, o, cfg);
      // Per-cell iteration trace for the perf-gate's trace_diff attribution:
      // first repeat only (the virtual-clock export is deterministic, so one
      // capture represents every repeat byte-for-byte).
      obs::TraceSession trace_session;
      const bool capture = trace_dir != nullptr && rep == 0;
      if (capture) trainer.attach_trace(&trace_session);
      const auto report = trainer.run();
      if (capture) {
        trainer.attach_trace(nullptr);
        obs::ChromeTraceOptions topts;
        topts.include_wall = false;  // strip wall stamps: diffable across runs
        // The cell key with '/' flattened to '_', e.g.
        // VGG16_nvlink_s2r1m1_pool2_1f1b.trace.json.
        std::string name = bench::cell_key(spec);
        std::replace(name.begin(), name.end(), '/', '_');
        const std::string path = std::string(trace_dir) + "/" + name + ".trace.json";
        if (!obs::write_chrome_trace(trace_session, path, topts)) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
          return 1;
        }
      }
      const auto& st = report.stats.back();
      push("seconds", st.seconds);
      push("img_per_s", kGlobalBatch / st.seconds);
      push("stall_seconds", st.stall_seconds);
      push("bubble_seconds", st.bubble_seconds);
      if (pipelined) {
        // Bottleneck cell's busy time: its span minus its pipeline stalls.
        double busy_max = 0.0;
        for (const auto& row : report.cell_stats.back()) {
          for (const auto& cs : row) {
            busy_max = std::max(busy_max, cs.seconds - cs.bubble_seconds);
          }
        }
        push("bubble_frac", (st.seconds - busy_max) / st.seconds);
      }
      push("allreduce_seconds", st.allreduce_seconds);
      push("allreduce_exposed_seconds", st.allreduce_exposed_seconds);
      push("p2p_bytes", static_cast<double>(st.p2p_bytes));
      push("peer_stage_count", static_cast<double>(st.peer_stage_count));
      // Per-directed-link occupancy over the whole run: which links the
      // schedule (and the peer-staging router) actually used, as a fraction
      // of cluster virtual time. Idle links are omitted.
      const double total = trainer.cluster().now();
      for (int s = 0; s < devices && total > 0.0; ++s) {
        for (int d = 0; d < devices; ++d) {
          if (s == d) continue;
          double busy = trainer.cluster().link_busy_seconds(s, d);
          if (busy <= 0.0) continue;
          push("link_busy_frac_" + std::to_string(s) + "_" + std::to_string(d), busy / total);
        }
      }
    }
    std::string grid = std::to_string(spec.stages) + "x" + std::to_string(spec.replicas) + "x" +
                       std::to_string(spec.microbatches);
    t.add_row({spec.net, spec.link, grid, std::to_string(spec.pool_gb) + "G", spec.schedule,
               util::format_double(cell.median("seconds") * 1e3, 1),
               util::format_double(cell.median("img_per_s"), 1),
               util::format_double(cell.median("bubble_seconds") * 1e3, 2),
               pipelined ? util::format_double(cell.median("bubble_frac"), 4) : "-",
               util::format_double(cell.median("allreduce_exposed_seconds") * 1e3, 2),
               util::format_double(cell.median("peer_stage_count"), 0)});
    results.push_back(std::move(cell));
  }
  t.print();
  std::printf("\n%zu cells x %d repeat(s); medians above, full {median, lo, hi, n} per metric "
              "in the JSON output.\n",
              results.size(), repeats);

  bool checks_ok = true;
  if (bench::tier_has_checks(tier)) {
    std::printf("\nsweep checks:\n");
    for (const bench::SweepCheck& c : bench::check_sweep(results)) {
      checks_ok = checks_ok && c.ok();
      std::printf("%s %s: %s\n", c.ok() ? "CONFIRMED" : "VIOLATED", c.name.c_str(),
                  c.claim.c_str());
      for (const std::string& line : c.checked) std::printf("    %s\n", line.c_str());
      for (const std::string& line : c.violations) std::printf("  !! %s\n", line.c_str());
    }
  } else {
    std::printf("\nsweep checks: tier %s declares none of their cells; skipped\n",
                tier.c_str());
  }

  if (json_path) {
    util::JsonWriter w;
    w.begin_object();
    w.key("schema_version").value(1);
    w.key("kind").value("sweep");
    w.key("trajectory_point").value(point);
    w.key("tier").value(tier);
    w.key("repeats").value(repeats);
    w.key("global_batch").value(kGlobalBatch);
    w.key("cells").begin_array();
    for (const bench::SweepCellResult& cell : results) {
      const bench::SweepCellSpec& s = cell.spec;
      w.begin_object();
      w.key("net").value(s.net);
      w.key("link").value(s.link);
      w.key("stages").value(s.stages);
      w.key("replicas").value(s.replicas);
      w.key("microbatches").value(s.microbatches);
      w.key("pool_gb").value(s.pool_gb);
      w.key("schedule").value(s.schedule);
      w.key("metrics").begin_object();
      for (const auto& [name, samples] : cell.samples) {
        w.key(name).begin_object(util::JsonWriter::kInline);
        w.key("median").value_sci(bench::median_of(samples), 6);
        w.key("lo").value_sci(*std::min_element(samples.begin(), samples.end()), 6);
        w.key("hi").value_sci(*std::max_element(samples.begin(), samples.end()), 6);
        w.key("n").value(static_cast<int>(samples.size()));
        w.end_object();
      }
      w.end_object();
      w.end_object();
    }
    w.end_array().end_object();
    if (!w.save(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  return checks_ok ? 0 : 1;
}
