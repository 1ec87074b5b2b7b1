// data_parallel: walkthrough of the dist/ layer.
//
// Data parallelism is the 1 x R grid of dist::HybridParallelTrainer: one
// pipeline stage, replicated across R devices. Part 1 (real numerics) trains
// the same tiny conv net twice — once on a single simulated device with the
// full batch, once data-parallel across two devices with the batch sharded —
// and shows the per-iteration losses are BIT-IDENTICAL: sharding +
// all-reduce is just another memory schedule, and schedules never change
// training results.
//
// Part 2 (simulation) scales a paper-sized ResNet50 across an NVLink ring
// and prints the weak-scaling curve with the collective telemetry.
#include <cstdio>
#include <cstring>

#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace sn;

int main() {
  // --- Part 1: bit-identical data-parallel training ------------------------
  const int kGlobalBatch = 8, kIters = 6;
  auto factory = [](int batch) { return graph::build_tiny_linear(batch, 12); };

  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  o.allow_workspace = false;  // identical conv algorithm at any batch size

  train::TrainConfig tc;
  tc.iterations = kIters;
  tc.lr = 0.05f;
  tc.momentum = 0.9f;

  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, tc);
  auto single = trainer.run();

  dist::HybridParallelConfig cfg;
  cfg.stages = 1;
  cfg.replicas = 2;
  cfg.microbatches = 1;
  cfg.global_batch = kGlobalBatch;
  cfg.cluster = sim::nvlink_cluster_spec(2);
  cfg.train = tc;
  dist::HybridParallelTrainer dp(factory, o, cfg);
  auto multi = dp.run();

  std::printf("=== 1 device (batch %d) vs 2 devices (batch %d each) ===\n", kGlobalBatch,
              dp.shard_batch());
  util::Table t({"iter", "single-device loss", "2-device loss", "bitwise"});
  bool all_equal = true;
  for (int i = 0; i < kIters; ++i) {
    bool eq = std::memcmp(&single.losses[static_cast<size_t>(i)],
                          &multi.losses[static_cast<size_t>(i)], sizeof(double)) == 0;
    all_equal = all_equal && eq;
    t.add_row({std::to_string(i), util::format_double(single.losses[static_cast<size_t>(i)], 9),
               util::format_double(multi.losses[static_cast<size_t>(i)], 9),
               eq ? "==" : "DIFFER"});
  }
  t.print();
  std::printf("losses bit-identical across the cluster boundary: %s\n\n",
              all_equal ? "YES" : "NO");
  if (!all_equal) return 1;

  const auto& st = multi.cell_stats.back().front().front();
  std::printf("device 0 telemetry (last iteration): p2p %s MB sent, allreduce %.2f ms, "
              "iteration %.2f ms\n\n",
              util::format_double(st.p2p_bytes / 1048576.0, 2).c_str(),
              st.allreduce_seconds * 1e3, st.seconds * 1e3);

  // --- Part 2: paper-scale weak scaling (pure simulation) ------------------
  std::printf("=== ResNet50, batch 32/device, NVLink ring (simulated) ===\n");
  util::Table scale({"devices", "iter (ms)", "allreduce (ms)", "P2P (MB)", "img/s", "speedup"});
  double base = 0.0;
  for (int devices : {1, 2, 4}) {
    dist::HybridParallelConfig c2;
    c2.stages = 1;
    c2.replicas = devices;
    c2.microbatches = 1;
    c2.global_batch = 32 * devices;
    c2.cluster = sim::nvlink_cluster_spec(devices);
    c2.train.iterations = 2;
    core::RuntimeOptions so = core::make_policy(core::PolicyPreset::kSuperNeurons,
                                                c2.cluster.device);
    so.real = false;
    dist::HybridParallelTrainer sim_dp(
        [](int batch) { return graph::build_resnet_preset(50, batch); }, so, c2);
    auto rep = sim_dp.run();
    const auto& last = rep.stats.back();
    double img_s = c2.global_batch / last.seconds;
    if (devices == 1) base = img_s;
    scale.add_row({std::to_string(devices), util::format_double(last.seconds * 1e3, 1),
                   util::format_double(last.allreduce_seconds * 1e3, 2),
                   util::format_double(last.p2p_bytes / 1048576.0, 1),
                   util::format_double(img_s, 1), util::format_double(img_s / base, 2)});
  }
  scale.print();
  return 0;
}
