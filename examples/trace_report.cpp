// trace_report: run a traced schedule replay over the simulated cluster and
// AUDIT the bubble/overlap accounting — the obs::TraceAnalyzer re-derives
// {compute, exposed transfer, bubble-by-phase, exposed collective} from the
// recorded span DAG and the tool reconciles them against the trainer's own
// IterationStats scalars, plus a flow audit (every P2P/collective arrow must
// pair) and the per-iteration critical path. Exits nonzero on any
// reconciliation or flow-pairing failure, so CI can gate on it.
//
//   $ ./build/trace_report [network] [--stages S] [--replicas R]
//         [--microbatches M] [--batch B] [--iters N] [--pool-gb G]
//         [--peer-staging]
//         [--trace out.json] [--metrics out.json]
//         [--profile-out prof.json] [--profile-in prof.json]
//
// --pool-gb caps the device pool (default: the cluster preset's capacity)
// and --peer-staging enables the peer-memory staging tier, so the audit can
// cover the peer_stage/peer_fetch spans and their evict->stage->fetch flow
// arrows on the pool-constrained demo geometry.
//
// The run is an S x R dist::HybridParallelTrainer grid under the 1F1B
// column schedule: replicas > 1 adds per-stage row all-reduces (the
// exposed-collective surface); replicas == 1 is the plain S-stage pipeline.
// --trace exports the Perfetto-loadable Chrome-trace JSON (with wall-clock
// stamps); --metrics exports the analyzer's counters /
// gauges / stall histogram through the shared util::JsonWriter path.
//
// Profile-guided partitioning loop (ISSUE 10): --profile-out persists the
// run's obs::CostProfile (observed per-layer kernel seconds + per-device
// occupancy); --profile-in loads one back, re-cuts the net with observed
// costs replacing the analytic roofline, prints analytic-vs-profile cuts
// with both evaluated under OBSERVED stage seconds, and runs the traced
// schedule on the profile-guided cuts.
//
// The AUDIT additionally fails when any device's span ring evicted spans
// (TraceRecorder::dropped() > 0): attribution over a truncated ring would
// reconcile against nothing.
//
// Integer flags must be whole integers >= 1 (--pool-gb >= 0); anything else,
// and a grid the trainer rejects (more stages than the net has cuts, a
// batch that does not split evenly over replicas and microbatches), exits 2
// with a usage error.
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/partitioner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/cost_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_analyzer.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace sn;

namespace {

std::string ms(double s) { return util::format_double(s * 1e3, 3); }


core::RuntimeOptions sim_options(const sim::ClusterSpec& cluster, int pool_gb) {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons, cluster.device);
  o.real = false;
  if (pool_gb > 0) o.device_capacity = static_cast<uint64_t>(pool_gb) << 30;
  return o;
}

bool within(double a, double b, double eps) { return std::abs(a - b) <= eps; }

/// One reconciliation line; flips `ok` on mismatch.
void check(const char* what, double trainer, double analyzer, bool* ok) {
  const bool match = within(trainer, analyzer, 1e-9);
  std::printf("  %-28s trainer %12.9f s   trace %12.9f s   %s\n", what, trainer, analyzer,
              match ? "ok" : "MISMATCH");
  if (!match) *ok = false;
}

void print_attribution(const obs::TraceAnalyzer& an) {
  util::Table t({"device", "compute (ms)", "alloc (ms)", "bubble fill (ms)", "steady (ms)",
                 "drain (ms)", "xfer stall (ms)", "coll stall (ms)", "p2p (ms)"});
  for (const auto& [dev, a] : an.device_attribution()) {
    t.add_row({std::to_string(dev), ms(a.compute_seconds), ms(a.alloc_seconds),
               ms(a.bubble_fill_seconds), ms(a.bubble_steady_seconds), ms(a.bubble_drain_seconds),
               ms(a.transfer_stall_seconds), ms(a.collective_stall_seconds),
               ms(a.p2p_seconds)});
  }
  t.print();
}

void print_critical_path(const obs::TraceAnalyzer& an) {
  const auto path = an.critical_path();
  double compute = 0.0, stall = 0.0;
  int hops = 0;
  for (const auto& step : path) {
    if (step.kind == obs::SpanKind::kCompute) compute += step.vend - step.vbegin;
    if (step.kind == obs::SpanKind::kStall) stall += step.vend - step.vbegin;
    if (step.via_flow != 0) ++hops;
  }
  std::printf("critical path: %zu spans, %d cross-device flow hops, %s ms compute / %s ms "
              "stalled on it\n",
              path.size(), hops, ms(compute).c_str(), ms(stall).c_str());
  const size_t show = path.size() < 6 ? path.size() : 6;
  for (size_t i = path.size() - show; i < path.size(); ++i) {
    const auto& s = path[i];
    std::printf("  dev%d %-10s %-12s [%s, %s] ms%s\n", s.device, obs::span_kind_name(s.kind),
                s.name.c_str(), ms(s.vbegin).c_str(), ms(s.vend).c_str(),
                s.via_flow ? "  <- flow" : "");
  }
}

/// Format a cut vector as "[a, b]".
std::string cuts_str(const std::vector<int>& cuts) {
  std::string s = "[";
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(cuts[i]);
  }
  return s + "]";
}

/// Analytic vs profile-guided partition, BOTH cut sets evaluated under the
/// observed cost prefixes (partition_at on the profile-guided partitioner),
/// so "max-stage" compares what the profile says each cut actually costs.
void print_partition_comparison(const std::string& name, int microbatch, int stages,
                                int microbatches, const sim::ClusterSpec& cluster,
                                uint64_t device_capacity, const obs::CostProfile& profile) {
  auto net = bench::build_network(name, microbatch);
  if (!net->finalized()) net->finalize();
  graph::NetPartitioner analytic(*net, cluster.device, cluster.link, device_capacity);
  graph::NetPartitioner observed(
      *net, cluster.device, cluster.link, device_capacity,
      [&profile](const std::string& layer, double* fwd, double* bwd) {
        return profile.layer_seconds(layer, fwd, bwd);
      });
  const auto plan_a = analytic.partition(stages, microbatches);
  const auto plan_o = observed.partition(stages, microbatches);
  const double a_obs = observed.partition_at(plan_a.cuts).max_stage_seconds;
  const double o_obs = plan_o.max_stage_seconds;
  std::printf("\nprofile-guided partition (%d stages, %d microbatches):\n", stages,
              microbatches);
  std::printf("  analytic cuts %-14s -> observed max-stage %s ms\n",
              cuts_str(plan_a.cuts).c_str(), ms(a_obs).c_str());
  std::printf("  profile  cuts %-14s -> observed max-stage %s ms  (%s)\n",
              cuts_str(plan_o.cuts).c_str(), ms(o_obs).c_str(),
              plan_o.cuts == plan_a.cuts ? "same cuts" : "cuts moved");
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "VGG16";
  int stages = 2, replicas = 2, microbatches = 4, batch = 32, iters = 2, pool_gb = 0;
  bool peer_staging = false;
  std::string trace_path, metrics_path, profile_out, profile_in;
  for (int i = 1; i < argc; ++i) {
    auto next_int = [&](int* out, uint64_t min) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
      }
      const char* flag = argv[i];
      *out = static_cast<int>(bench::parse_count(flag, argv[++i], min, INT_MAX));
    };
    if (std::strcmp(argv[i], "--stages") == 0) {
      next_int(&stages, 1);
    } else if (std::strcmp(argv[i], "--replicas") == 0) {
      next_int(&replicas, 1);
    } else if (std::strcmp(argv[i], "--microbatches") == 0) {
      next_int(&microbatches, 1);
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      next_int(&batch, 1);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      next_int(&iters, 1);
    } else if (std::strcmp(argv[i], "--pool-gb") == 0) {
      next_int(&pool_gb, 0);
    } else if (std::strcmp(argv[i], "--peer-staging") == 0) {
      peer_staging = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profile_out = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-in") == 0 && i + 1 < argc) {
      profile_in = argv[++i];
    } else if (argv[i][0] != '-') {
      name = argv[i];
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }
  bench::require_network(name);
  auto factory = [&](int b) { return bench::build_network(name, b); };

  std::printf("=== trace_report: %s, %dx%d grid, %d microbatches, %d iters ===\n",
              name.c_str(), stages, replicas, microbatches, iters);

  // Profile-guided partitioning: load observed costs and hand them to the
  // trainer config, so the traced run below already uses the observed cuts.
  obs::CostProfile profile;
  bool have_profile = false;
  if (!profile_in.empty()) {
    try {
      profile = obs::CostProfile::load(profile_in);
      have_profile = true;
    } catch (const util::JsonError& e) {
      std::fprintf(stderr, "trace_report: %s\n", e.what());
      return 2;
    }
    std::printf("loaded cost profile %s (%zu layers, %zu devices)\n", profile_in.c_str(),
                profile.layers().size(), profile.devices().size());
  }

  obs::TraceSession session;
  // Trainer-side scalars the analyzer must reproduce from spans alone.
  double bubble_total = 0.0, bubble_fill = 0.0, bubble_steady = 0.0, bubble_drain = 0.0;
  double exposed_last = 0.0;

  {
    dist::HybridParallelConfig cfg;
    cfg.stages = stages;
    cfg.replicas = replicas;
    cfg.microbatches = microbatches;
    cfg.global_batch = batch;
    cfg.cluster = sim::nvlink_cluster_spec(stages * replicas);
    cfg.train.iterations = iters;
    cfg.peer_staging = peer_staging;
    if (have_profile) cfg.cost_profile = &profile;
    const core::RuntimeOptions opts = sim_options(cfg.cluster, pool_gb);
    std::unique_ptr<dist::HybridParallelTrainer> hyb;
    try {
      hyb = std::make_unique<dist::HybridParallelTrainer>(factory, opts, cfg);
      if (have_profile) {
        print_partition_comparison(name, hyb->microbatch_size(), stages, microbatches,
                                   cfg.cluster, opts.device_capacity, profile);
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "trace_report: %s\n", e.what());
      return 2;
    }
    hyb->attach_trace(&session);
    auto rep = hyb->run();
    for (const auto& st : rep.stats) {
      bubble_total += st.bubble_seconds;
      bubble_fill += st.bubble_fill_seconds;
      bubble_steady += st.bubble_steady_seconds;
      bubble_drain += st.bubble_drain_seconds;
    }
    exposed_last = rep.stats.back().allreduce_exposed_seconds;
    hyb->attach_trace(nullptr);
  }

  obs::TraceAnalyzer an(session);
  print_attribution(an);

  const obs::Attribution total = an.total();
  std::printf("\nreconciliation (trainer scalars vs span-derived):\n");
  bool ok = true;
  check("bubble", bubble_total, total.bubble_seconds, &ok);
  check("bubble fill", bubble_fill, total.bubble_fill_seconds, &ok);
  check("bubble steady", bubble_steady, total.bubble_steady_seconds, &ok);
  check("bubble drain", bubble_drain, total.bubble_drain_seconds, &ok);
  // The exposed-collective scalar is per iteration; the span algebra
  // anchors on the LAST drain-end marker, so compare the final iteration.
  check("allreduce exposed (last it)", exposed_last, an.exposed_collective_seconds(), &ok);

  const auto unmatched = an.unmatched_flows();
  std::printf("flow audit: %zu produced, %zu consumed, %zu unmatched\n", an.flows_produced(),
              an.flows_consumed(), unmatched.size());
  if (!unmatched.empty()) ok = false;

  // Ring-eviction audit: a truncated ring means every reconciliation above
  // ran on a partial record — fail loudly instead of passing by luck.
  size_t dropped_total = 0;
  for (int dev : session.devices()) {
    const size_t d = session.recorder(dev)->dropped();
    if (d > 0) std::printf("  dev%d dropped %zu spans at ring capacity\n", dev, d);
    dropped_total += d;
  }
  std::printf("span rings: %zu dropped\n", dropped_total);
  if (dropped_total > 0) ok = false;

  print_critical_path(an);

  if (!profile_out.empty()) {
    obs::CostProfile captured = obs::CostProfile::from_session(session);
    if (!captured.save(profile_out)) {
      std::fprintf(stderr, "failed to write %s\n", profile_out.c_str());
      return 1;
    }
    std::printf("wrote cost profile %s (%zu layers, %zu devices)\n", profile_out.c_str(),
                captured.layers().size(), captured.devices().size());
  }

  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(session, trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote trace %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry m;
    an.fill_metrics(m);
    util::JsonWriter w;
    w.begin_object();
    w.key("metrics");
    m.write_json(w);
    w.end_object();
    if (!w.save(metrics_path)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("wrote metrics %s\n", metrics_path.c_str());
  }
  std::printf("%s\n", ok ? "AUDIT OK" : "AUDIT FAILED");
  return ok ? 0 : 1;
}
