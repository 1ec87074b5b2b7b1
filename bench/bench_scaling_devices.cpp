// bench_scaling_devices: data-parallel scaling curves on the simulated
// cluster (1/2/4/8 devices, NVLink vs PCIe fabrics).
//
// Each point is a 1 x N dist::HybridParallelTrainer grid (one replica per
// device, no pipeline stages). Weak scaling holds the per-device batch
// constant (the whole point of the paper's memory runtime is to keep
// per-device batches large); strong scaling splits a fixed global batch.
// Throughput counts the global batch against the slowest device's iteration
// time including the gradient all-reduce and the SGD step, so the
// communication overhead the fabric model charges is visible as the gap to
// linear speedup. A point whose network does not fit its devices (the
// partitioner rejects the stage, or the runtime runs out of device memory)
// prints as a "does not fit" row, its reason follows the table, and speedups
// are relative to the smallest device count that fit.
#include <climits>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "dist/hybrid_parallel.hpp"

using namespace sn;

namespace {

struct Point {
  int devices;
  double iter_s = 0.0;
  double allreduce_s = 0.0;
  uint64_t p2p_bytes = 0;
  double img_per_s = 0.0;
  std::string misfit;  ///< why the network does not fit; empty when it ran
};

Point run_point(const std::string& net, int devices, int per_device_batch,
                const sim::ClusterSpec& fabric) {
  dist::HybridParallelConfig cfg;
  cfg.stages = 1;
  cfg.replicas = devices;
  cfg.microbatches = 1;
  cfg.global_batch = devices * per_device_batch;
  cfg.cluster = fabric;
  cfg.train.iterations = 2;  // first iteration warms the offload schedule
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons,
                                             fabric.device);
  o.real = false;
  Point p;
  p.devices = devices;
  dist::HybridParallelReport report;
  try {
    dist::HybridParallelTrainer dp(
        [&](int batch) { return bench::build_network(net, batch); }, o, cfg);
    report = dp.run();
  } catch (const std::invalid_argument& e) {
    p.misfit = e.what();
    return p;
  } catch (const core::OomError& e) {
    p.misfit = e.what;
    return p;
  }
  const auto& st = report.stats.back();
  p.iter_s = st.seconds;
  p.allreduce_s = st.allreduce_seconds;
  p.p2p_bytes = st.p2p_bytes;
  p.img_per_s = static_cast<double>(cfg.global_batch) / st.seconds;
  return p;
}

void sweep(const char* title, const std::string& net, bool weak, int batch,
           const sim::ClusterSpec& fabric) {
  std::printf("\n--- %s: %s, %s scaling, batch %d%s ---\n", title, net.c_str(),
              weak ? "weak" : "strong", batch, weak ? "/device" : " global");
  util::Table t({"devices", "iter (ms)", "allreduce (ms)", "P2P (MB)", "img/s", "speedup"});
  std::optional<double> base;  // img/s at the smallest device count that fit
  std::vector<std::string> misfits;
  for (int devices : {1, 2, 4, 8}) {
    int per_device = weak ? batch : batch / devices;
    Point p = run_point(net, devices, per_device, fabric);
    if (!p.misfit.empty()) {
      t.add_row({std::to_string(devices), "does not fit", "-", "-", "-", "-"});
      misfits.push_back(std::to_string(devices) + " devices: does not fit: " + p.misfit);
      continue;
    }
    if (!base) base = p.img_per_s;
    double speedup = p.img_per_s / *base;
    t.add_row({std::to_string(devices), util::format_double(p.iter_s * 1e3, 1),
               util::format_double(p.allreduce_s * 1e3, 2), bench::mb(p.p2p_bytes),
               util::format_double(p.img_per_s, 1), util::format_double(speedup, 2)});
    if (weak && devices == 2) {
      std::printf("2-device weak scaling: %.2fx speedup, p2p_bytes=%llu (%s MB/device)\n",
                  speedup, static_cast<unsigned long long>(p.p2p_bytes),
                  bench::mb(p.p2p_bytes / 2).c_str());
    }
  }
  t.print();
  for (const auto& m : misfits) std::printf("%s\n", m.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) {
    std::fprintf(stderr, "usage: bench_scaling_devices [NETWORK [BATCH]]\n");
    return 2;
  }
  std::string net = argc > 1 ? argv[1] : "ResNet50";
  bench::require_network(net);
  int batch = argc > 2 ? static_cast<int>(bench::parse_count("batch", argv[2], 1, INT_MAX)) : 32;

  std::printf("=== Data-parallel scaling on the simulated cluster (%s) ===\n", net.c_str());
  sweep("NVLink fabric", net, /*weak=*/true, batch, sim::nvlink_cluster_spec(1));
  sweep("NVLink fabric", net, /*weak=*/false, batch * 8, sim::nvlink_cluster_spec(1));
  sweep("PCIe fabric", net, /*weak=*/true, batch, sim::pcie_cluster_spec(1));
  sweep("PCIe fabric", net, /*weak=*/false, batch * 8, sim::pcie_cluster_spec(1));
  return 0;
}
