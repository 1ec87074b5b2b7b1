// bench_stream_overlap: quantify what the multi-stream TransferEngine buys —
// H2D prefetch and D2H offload traffic overlapping *each other*, not just
// compute (ROADMAP "multi-stream transfers"; the paper's overlap claim is
// that transfer traffic hides behind compute, which dual copy engines are a
// precondition for once traffic flows both ways).
//
// Two measurements, both against the serialized single-copy-engine baseline
// (DeviceSpec::copy_engines = 1, the seed's effective model):
//
//   1. A deterministic engine-level microbench: K copies submitted in each
//      direction back to back. With one engine the drain time is the sum of
//      both directions' occupancy; with two it is their max.
//   2. End-to-end zoo iterations at squeezed capacity (offload + prefetch
//      both active), reporting iteration time, stall time and the new
//      per-stream busy-seconds telemetry.
//
// Exits non-zero unless mixed-traffic sim time with dual engines is strictly
// below the serialized engine's (overlap_ratio > 0) — CI runs this as a gate.
// An optional argument (`--json PATH`) writes the results as JSON for the CI
// artifact upload.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "core/transfer_engine.hpp"
#include "util/json_writer.hpp"

using namespace sn;

namespace {

struct MicroResult {
  double drain_s = 0.0;  ///< virtual time to drain the mixed traffic
  double d2h_busy = 0.0;
  double h2d_busy = 0.0;
};

/// Drain K copies per direction on an engine over a machine with `engines`
/// copy engines; returns the virtual drain time and per-stream occupancy.
MicroResult run_micro(int engines, int copies, uint64_t bytes) {
  sim::DeviceSpec spec = sim::k40c_spec();
  spec.copy_engines = engines;
  sim::Machine m(spec);
  core::TransferEngine eng(m, /*pinned=*/true);
  for (int i = 0; i < copies; ++i) {
    eng.submit(core::TransferDir::kD2H, static_cast<uint64_t>(2 * i), nullptr, nullptr, bytes);
    eng.submit(core::TransferDir::kH2D, static_cast<uint64_t>(2 * i + 1), nullptr, nullptr,
               bytes);
  }
  eng.drain();
  MicroResult r;
  r.drain_s = m.now();
  r.d2h_busy = m.counters().seconds_d2h;
  r.h2d_busy = m.counters().seconds_h2d;
  return r;
}

struct NetResult {
  std::string name;
  int batch = 0;
  double serialized_ms = 0.0;
  double dual_ms = 0.0;
  double stall_serialized_ms = 0.0;
  double stall_dual_ms = 0.0;
  double d2h_seconds = 0.0;  ///< per-stream busy time, dual-engine run
  double h2d_seconds = 0.0;
  bool ok = false;
};

NetResult run_net(const char* name, int batch, uint64_t capacity, bool tensor_cache) {
  NetResult r;
  r.name = name;
  r.batch = batch;
  for (int engines : {1, 2}) {
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    // The eager-offload UTP configuration (§3.3.1 without the cache) streams
    // async D2H through the forward pass, so its tail drains while backward
    // prefetches start — the window where the directions actually contend.
    // With the cache on, evictions are synchronous and prefetches hide under
    // compute, so the engines rarely see mixed traffic (kept as contrast).
    o.tensor_cache = tensor_cache;
    o.device_capacity = capacity;
    o.spec = sim::titan_xp_spec();  // faster compute = relatively longer copies
    o.spec.copy_engines = engines;
    auto net = bench::build_network(name, batch);
    try {
      auto st = bench::run_sim_iteration(*net, o);
      if (engines == 1) {
        r.serialized_ms = st.seconds * 1e3;
        r.stall_serialized_ms = st.stall_seconds * 1e3;
      } else {
        r.dual_ms = st.seconds * 1e3;
        r.stall_dual_ms = st.stall_seconds * 1e3;
        r.d2h_seconds = st.d2h_seconds;
        r.h2d_seconds = st.h2d_seconds;
      }
      r.ok = true;
    } catch (const core::OomError&) {
      r.ok = false;
      return r;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::parse_single_flag(argc, argv, "--json");

  // --- engine-level microbench (deterministic) -----------------------------
  const int kCopies = 32;
  const uint64_t kBytes = 16ull << 20;
  MicroResult serialized = run_micro(/*engines=*/1, kCopies, kBytes);
  MicroResult dual = run_micro(/*engines=*/2, kCopies, kBytes);
  const double overlap_ratio =
      serialized.drain_s > 0.0 ? 1.0 - dual.drain_s / serialized.drain_s : 0.0;

  std::printf("=== stream overlap: mixed H2D+D2H traffic, serialized vs dual engines ===\n\n");
  std::printf("microbench: %d x %llu MB each direction\n", kCopies,
              static_cast<unsigned long long>(kBytes >> 20));
  std::printf("  serialized engine drain: %.2f ms\n", serialized.drain_s * 1e3);
  std::printf("  dual-engine drain:       %.2f ms\n", dual.drain_s * 1e3);
  std::printf("  per-stream occupancy:    d2h_seconds=%.4f h2d_seconds=%.4f\n", dual.d2h_busy,
              dual.h2d_busy);
  std::printf("  overlap_ratio=%.3f (fraction of serialized drain hidden by the second "
              "engine)\n\n",
              overlap_ratio);

  // --- end-to-end zoo sweep ------------------------------------------------
  // Capacity squeezed below each working set so offload AND prefetch flow.
  struct NetCase {
    const char* name;
    int batch;
    uint64_t capacity;
    bool tensor_cache;
  };
  const NetCase cases[] = {
      {"VGG16", 128, 12ull << 30, /*tensor_cache=*/false},
      {"InceptionV4", 128, 8ull << 30, /*tensor_cache=*/false},
      {"ResNet50", 256, 8ull << 30, /*tensor_cache=*/true},
  };
  util::Table t({"network", "batch", "cache", "serialized (ms)", "dual (ms)", "hidden (%)",
                 "stall ser (ms)", "stall dual (ms)", "d2h busy (ms)", "h2d busy (ms)"});
  std::vector<NetResult> nets;
  for (const auto& c : cases) {
    NetResult r = run_net(c.name, c.batch, c.capacity, c.tensor_cache);
    nets.push_back(r);
    if (!r.ok) {
      t.add_row({r.name, std::to_string(r.batch), c.tensor_cache ? "on" : "off", "OOM", "-", "-",
                 "-", "-", "-", "-"});
      continue;
    }
    const double hidden =
        r.serialized_ms > 0.0 ? 100.0 * (r.serialized_ms - r.dual_ms) / r.serialized_ms : 0.0;
    t.add_row({r.name, std::to_string(r.batch), c.tensor_cache ? "on" : "off",
               util::format_double(r.serialized_ms, 2), util::format_double(r.dual_ms, 2),
               util::format_double(hidden, 2), util::format_double(r.stall_serialized_ms, 2),
               util::format_double(r.stall_dual_ms, 2),
               util::format_double(r.d2h_seconds * 1e3, 2),
               util::format_double(r.h2d_seconds * 1e3, 2)});
  }
  t.print();
  std::printf("\n(dual <= serialized everywhere; the gap is offload/prefetch traffic the\n"
              "second copy engine hides. Eager-offload rows (cache off) mix directions at\n"
              "the forward/backward boundary; with the Tensor Cache the schedule already\n"
              "hides transfers so well the engine count barely shows — the paper's claim.\n"
              "d2h/h2d busy are the per-stream occupancy counters StepTelemetry and\n"
              "IterationStats now carry.)\n");

  if (json_path) {
    util::JsonWriter w;
    w.begin_object();
    w.key("micro").begin_object(util::JsonWriter::kInline);
    w.key("serialized_s").value_fixed(serialized.drain_s, 9);
    w.key("dual_s").value_fixed(dual.drain_s, 9);
    w.key("d2h_seconds").value_fixed(dual.d2h_busy, 9);
    w.key("h2d_seconds").value_fixed(dual.h2d_busy, 9);
    w.key("overlap_ratio").value_fixed(overlap_ratio, 6);
    w.end_object();
    w.key("nets").begin_array();
    for (const NetResult& r : nets) {
      w.begin_object(util::JsonWriter::kInline);
      w.key("name").value(r.name);
      w.key("batch").value(r.batch);
      w.key("ok").value(r.ok);
      w.key("serialized_ms").value_fixed(r.serialized_ms, 4);
      w.key("dual_ms").value_fixed(r.dual_ms, 4);
      w.key("d2h_seconds").value_fixed(r.d2h_seconds, 9);
      w.key("h2d_seconds").value_fixed(r.h2d_seconds, 9);
      w.end_object();
    }
    w.end_array().end_object();
    if (!w.save(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }

  // Gate: the second engine must strictly hide mixed traffic.
  if (!(dual.drain_s < serialized.drain_s)) {
    std::fprintf(stderr, "FAIL: dual-engine drain (%.6f s) not below serialized (%.6f s)\n",
                 dual.drain_s, serialized.drain_s);
    return 1;
  }
  for (const NetResult& r : nets) {
    if (r.ok && r.dual_ms > r.serialized_ms + 1e-9) {
      std::fprintf(stderr, "FAIL: %s dual engines slower than serialized (%.3f > %.3f ms)\n",
                   r.name.c_str(), r.dual_ms, r.serialized_ms);
      return 1;
    }
  }
  return 0;
}
