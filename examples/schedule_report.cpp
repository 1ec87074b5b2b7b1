// schedule_report: inspect what the SuperNeurons scheduler decides for any
// zoo network — liveness intervals, recomputation segments, per-step memory,
// and a policy comparison — without running anything for real.
//
//   $ ./build/examples/schedule_report [network] [batch]
//   $ ./build/examples/schedule_report [network] [batch] --csv
//   $ ./build/examples/schedule_report [network] [batch] --pipeline S M
//   $ ./build/examples/schedule_report [network] [batch] --pipeline S M --trace out.json
//   networks: AlexNet VGG16 VGG19 InceptionV4 ResNet50 ResNet101 ResNet152
//
// --csv emits the per-step overlap series instead of the tables: one row per
// route step with the compute seconds and the {d2h,h2d,p2p} copy-engine busy
// seconds that accrued during it — the raw material of the paper's
// transfer/compute overlap figure (plot busy columns against compute).
//
// --pipeline runs the 1F1B column schedule over an S-stage pipeline at M
// microbatches (simulated cluster) and breaks each stage's bubble into the
// fill / steady / drain phases the engine stamps into StepTelemetry.
//
// --trace FILE (with --pipeline) additionally records the replay with
// obs::TraceRecorder and exports a Perfetto-loadable Chrome-trace JSON.
// trace_report is the richer tool (attribution, hybrid grid).
//
// Bad arguments exit 2: a batch or --pipeline count that is not a whole
// number >= 1, an unknown flag or network, or a pipeline the trainer
// rejects (more stages than the net has cuts, a batch M does not divide).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "core/liveness.hpp"
#include "core/recompute.hpp"
#include "core/runtime.hpp"
#include "dist/hybrid_parallel.hpp"
#include "obs/chrome_trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace sn;

namespace {

using bench::mb;

// The pipeline run: per-stage busy time and phase-split bubble. Returns the
// exit code.
int pipeline_phase_report(const std::string& name, int batch, int stages, int microbatches,
                          const std::string& trace_path) {
  dist::HybridParallelConfig cfg;
  cfg.stages = stages;
  cfg.replicas = 1;
  cfg.microbatches = microbatches;
  cfg.global_batch = batch;
  cfg.cluster = sim::nvlink_cluster_spec(stages);
  cfg.train.iterations = 2;
  auto factory = [&](int b) { return bench::build_network(name, b); };
  core::RuntimeOptions opts = core::make_policy(core::PolicyPreset::kSuperNeurons, cfg.cluster.device);
  opts.real = false;
  std::unique_ptr<dist::HybridParallelTrainer> pipe;
  try {
    pipe = std::make_unique<dist::HybridParallelTrainer>(factory, opts, cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "schedule_report: %s\n", e.what());
    return 2;
  }
  obs::TraceSession session;
  if (!trace_path.empty()) pipe->attach_trace(&session);
  auto rep = pipe->run();
  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(session, trace_path)) {
      std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote trace %s\n", trace_path.c_str());
    pipe->attach_trace(nullptr);
  }
  const auto& agg = rep.stats.back();
  const auto& per_stage = rep.cell_stats.back();

  std::printf("--- schedule 1f1b: iter %.1f ms, bubble %.2f ms "
              "(fill %.2f / steady %.2f / drain %.2f)\n",
              agg.seconds * 1e3, agg.bubble_seconds * 1e3, agg.bubble_fill_seconds * 1e3,
              agg.bubble_steady_seconds * 1e3, agg.bubble_drain_seconds * 1e3);
  util::Table t({"stage", "layers", "busy (ms)", "bubble fill (ms)", "steady (ms)",
                 "drain (ms)", "stash (MB)"});
  for (int s = 0; s < stages; ++s) {
    const auto& st = per_stage[static_cast<size_t>(s)][0];
    const auto& spec = pipe->plan().stages[static_cast<size_t>(s)];
    t.add_row({std::to_string(s), std::to_string(spec.end - spec.begin),
               util::format_double((st.seconds - st.bubble_seconds) * 1e3, 2),
               util::format_double(st.bubble_fill_seconds * 1e3, 2),
               util::format_double(st.bubble_steady_seconds * 1e3, 2),
               util::format_double(st.bubble_drain_seconds * 1e3, 2),
               mb(pipe->stash_bytes(s))});
  }
  t.print();
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  int pipe_stages = 0, pipe_microbatches = 0;
  std::string trace_path;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](int n) {
      if (i + n >= argc) {
        std::fprintf(stderr, "%s needs %d value(s)\n", argv[i], n);
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      need(2);
      pipe_stages = static_cast<int>(bench::parse_count("--pipeline", argv[i + 1], 1, INT_MAX));
      pipe_microbatches =
          static_cast<int>(bench::parse_count("--pipeline", argv[i + 2], 1, INT_MAX));
      i += 2;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      need(1);
      trace_path = argv[++i];
    } else if (argv[i][0] != '-' && pos.size() < 2) {
      pos.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }
  std::string name = !pos.empty() ? pos[0] : "AlexNet";
  int batch =
      pos.size() > 1 ? static_cast<int>(bench::parse_count("batch", pos[1].c_str(), 1, INT_MAX))
                     : 64;
  bench::require_network(name);

  if (pipe_stages > 0) {
    std::printf("=== %s (batch %d): %d-stage pipeline, %d microbatches ===\n", name.c_str(),
                batch, pipe_stages, pipe_microbatches);
    return pipeline_phase_report(name, batch, pipe_stages, pipe_microbatches, trace_path);
  }
  if (!trace_path.empty()) {
    std::fprintf(stderr, "--trace requires --pipeline (see trace_report for more)\n");
    return 2;
  }

  if (csv) {
    // Per-step transfer/compute overlap series (steady state: iteration 2).
    auto net = bench::build_network(name, batch);
    core::Runtime rt(*net, core::make_policy(core::PolicyPreset::kSuperNeurons));
    try {
      rt.train_iteration(nullptr, nullptr);  // warm-up: offload steady state
      const auto base = rt.machine().counters();
      rt.train_iteration(nullptr, nullptr);
      std::printf("step,layer,pass,compute_seconds,d2h_busy_seconds,h2d_busy_seconds,"
                  "p2p_busy_seconds,transfers_in_flight,clock\n");
      // The telemetry carries cumulative machine counters; emit per-step
      // deltas against the traced iteration's start.
      double prev_compute = base.compute_time, prev_d2h = base.seconds_d2h,
             prev_h2d = base.seconds_h2d, prev_p2p = base.seconds_p2p;
      for (const auto& s : rt.step_telemetry()) {
        std::printf("%d,%s,%s,%.9f,%.9f,%.9f,%.9f,%llu,%.9f\n", s.step, s.layer->name().c_str(),
                    s.forward ? "fwd" : "bwd", s.compute_seconds - prev_compute,
                    s.d2h_busy_seconds - prev_d2h, s.h2d_busy_seconds - prev_h2d,
                    s.p2p_busy_seconds - prev_p2p,
                    static_cast<unsigned long long>(s.transfers_in_flight), s.clock);
        prev_compute = s.compute_seconds;
        prev_d2h = s.d2h_busy_seconds;
        prev_h2d = s.h2d_busy_seconds;
        prev_p2p = s.p2p_busy_seconds;
      }
    } catch (const core::OomError& e) {
      std::fprintf(stderr, "%s OOMs at batch %d (%s)\n", name.c_str(), batch, e.what.c_str());
      return 1;
    }
    return 0;
  }

  auto net = bench::build_network(name, batch);

  std::printf("=== %s (batch %d) ===\n", name.c_str(), batch);
  std::printf("layers: %zu   tensors: %zu   baseline demand: %s MB   max layer: %s MB\n\n",
              net->num_layers(), net->registry().size(), mb(net->total_tensor_bytes()).c_str(),
              mb(net->max_layer_bytes()).c_str());

  // Liveness summary: how many tensors die in forward vs backward.
  core::Liveness lv(*net);
  int nfwd = static_cast<int>(net->route().size());
  int die_fwd = 0, die_bwd = 0, persistent = 0;
  for (const auto& t : net->registry().all()) {
    if (lv.is_persistent(t->uid())) {
      ++persistent;
    } else if (lv.last_occurrence(t->uid()) < nfwd) {
      ++die_fwd;
    } else if (lv.last_occurrence(t->uid()) >= 0) {
      ++die_bwd;
    }
  }
  std::printf("liveness: %d tensors die in forward, %d in backward, %d persistent (params)\n",
              die_fwd, die_bwd, persistent);

  // Recompute plan summary.
  core::RecomputePlan plan(*net, core::RecomputeMode::kCostAware);
  int speed = 0;
  size_t seg_layers = 0, longest = 0;
  for (const auto& seg : plan.segments()) {
    if (seg.speed_centric) ++speed;
    seg_layers += seg.layers.size();
    longest = std::max(longest, seg.layers.size());
  }
  std::printf("recompute: %zu segments over %zu layers (longest %zu); cost-aware picks\n"
              "  speed-centric for %d and memory-centric for %zu; predicted replays: %llu\n\n",
              plan.segments().size(), seg_layers, longest, speed,
              plan.segments().size() - static_cast<size_t>(speed),
              static_cast<unsigned long long>(
                  plan.predicted_extra_forwards(core::RecomputeMode::kCostAware)));

  // Policy comparison on the simulated 12 GB device.
  util::Table t({"policy", "status", "peak (MB)", "iter (ms)", "img/s", "D2H (MB)", "replays"});
  for (auto preset : {core::PolicyPreset::kCaffeLike, core::PolicyPreset::kTorchLike,
                      core::PolicyPreset::kMxnetLike, core::PolicyPreset::kTfLike,
                      core::PolicyPreset::kSuperNeurons}) {
    auto fresh = bench::build_network(name, batch);
    core::RuntimeOptions o = core::make_policy(preset);
    try {
      core::Runtime rt(*fresh, o);
      rt.train_iteration(nullptr, nullptr);
      auto st = rt.train_iteration(nullptr, nullptr);
      t.add_row({core::policy_name(preset), "ok", mb(st.peak_mem),
                 util::format_double(st.seconds * 1e3, 1),
                 util::format_double(batch / st.seconds, 1), mb(st.bytes_d2h),
                 std::to_string(st.extra_forwards)});
    } catch (const core::OomError& e) {
      t.add_row({core::policy_name(preset), "OOM", "-", "-", "-", "-", "-"});
      (void)e;
    }
  }
  t.print();

  // Per-step trace of the SuperNeurons schedule (first/last few steps).
  auto fresh = bench::build_network(name, batch);
  core::Runtime rt(*fresh, core::make_policy(core::PolicyPreset::kSuperNeurons));
  try {
    rt.train_iteration(nullptr, nullptr);
  } catch (const core::OomError&) {
    std::printf("\n(SuperNeurons itself OOMs at this batch; no step trace)\n");
    return 0;
  }
  const auto& tele = rt.step_telemetry();
  std::printf("\nSuperNeurons step trace (first 8 and last 8 of %zu steps):\n", tele.size());
  util::Table tr({"step", "layer", "pass", "mem (MB)", "live tensors", "conv algo", "host (MB)",
                  "d2h s/c", "h2d s/c", "in flight"});
  auto add = [&](const core::StepTelemetry& s) {
    tr.add_row({std::to_string(s.step), s.layer->name(), s.forward ? "fwd" : "bwd",
                mb(s.mem_in_use), std::to_string(s.live_tensors),
                s.layer->type() == graph::LayerType::kConv ? nn::algo_name(s.algo) : "-",
                mb(s.host_in_use),
                std::to_string(s.d2h_submitted) + "/" + std::to_string(s.d2h_completed),
                std::to_string(s.h2d_submitted) + "/" + std::to_string(s.h2d_completed),
                std::to_string(s.transfers_in_flight)});
  };
  for (size_t i = 0; i < tele.size() && i < 8; ++i) add(tele[i]);
  for (size_t i = tele.size() > 8 ? tele.size() - 8 : 8; i < tele.size(); ++i) add(tele[i]);
  tr.print();

  // Unified-tensor-pool / transfer-engine summary for the traced iteration
  // (the host-pool and engine counters StepTelemetry carries per step).
  const auto& last = tele.back();
  const auto xfer = rt.transfer_engine().stats();
  std::printf("\ntransfer engine: %llu offloads submitted (%llu completed, %llu discarded), "
              "%llu fetches submitted (%llu completed, %llu discarded)\n",
              static_cast<unsigned long long>(xfer.submitted_d2h),
              static_cast<unsigned long long>(xfer.completed_d2h),
              static_cast<unsigned long long>(xfer.discarded_d2h),
              static_cast<unsigned long long>(xfer.submitted_h2d),
              static_cast<unsigned long long>(xfer.completed_h2d),
              static_cast<unsigned long long>(xfer.discarded_h2d));
  std::printf("host pool: %s MB in use at iteration end, %s MB peak; "
              "copies: %llu inline, %llu on DMA workers\n",
              mb(last.host_in_use).c_str(), mb(last.host_peak).c_str(),
              static_cast<unsigned long long>(xfer.inline_copies),
              static_cast<unsigned long long>(xfer.dma_copies));
  // Per-stream view of the DMA engines: bytes moved and busy seconds per
  // direction (the multi-stream TransferEngine's occupancy counters).
  const auto& mc = rt.machine().counters();
  std::printf("per-stream: d2h %s MB / d2h_seconds=%.4f (%llu worker copies), "
              "h2d %s MB / h2d_seconds=%.4f (%llu worker copies)\n",
              mb(mc.bytes_d2h).c_str(), mc.seconds_d2h,
              static_cast<unsigned long long>(xfer.dma_copies_d2h), mb(mc.bytes_h2d).c_str(),
              mc.seconds_h2d, static_cast<unsigned long long>(xfer.dma_copies_h2d));
  return 0;
}
