// Shared helpers for the per-table / per-figure bench binaries.
//
// Every bench regenerates one table or figure from the paper's evaluation
// (§4); EXPERIMENTS.md maps bench output to the paper's reported rows.
// All benches run the simulated K40c/TITAN-Xp device (see DESIGN.md §6),
// so they execute paper-scale configurations (12 GB, batch 1024, depth
// 10^3+) on any development machine in seconds.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "graph/zoo.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sn::bench {

/// Networks used across the evaluation, by paper name.
inline std::unique_ptr<graph::Net> build_network(const std::string& name, int batch) {
  if (name == "AlexNet") return graph::build_alexnet(batch);
  if (name == "VGG16") return graph::build_vgg(16, batch);
  if (name == "VGG19") return graph::build_vgg(19, batch);
  if (name == "InceptionV4") return graph::build_inception_v4(batch);
  if (name == "ResNet50") return graph::build_resnet_preset(50, batch);
  if (name == "ResNet101") return graph::build_resnet_preset(101, batch);
  if (name == "ResNet152") return graph::build_resnet_preset(152, batch);
  throw std::invalid_argument("unknown network " + name);
}

/// Command-line check for a network name: exits 2 with a usage error when
/// build_network does not know `name`, like any other bad argument, instead
/// of letting the exception abort the run later.
inline void require_network(const std::string& name) {
  try {
    build_network(name, 1);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// One steady-state simulated iteration (params already resident; the first
/// iteration is discarded as warm-up so offload steady state is measured).
inline core::IterationStats run_sim_iteration(graph::Net& net, core::RuntimeOptions opts,
                                              int warmup = 1) {
  opts.real = false;
  core::Runtime rt(net, opts);
  core::IterationStats st;
  for (int i = 0; i <= warmup; ++i) st = rt.train_iteration(nullptr, nullptr);
  return st;
}

/// Images/second from a steady-state iteration.
inline double sim_img_per_s(graph::Net& net, const core::RuntimeOptions& opts) {
  auto st = run_sim_iteration(net, opts);
  double batch = static_cast<double>(net.input_layer()->out_shape().n);
  return batch / st.seconds;
}

/// True when the configuration completes an iteration without OOM.
inline bool runs_without_oom(const std::function<std::unique_ptr<graph::Net>()>& build,
                             core::RuntimeOptions opts) {
  try {
    auto net = build();
    opts.real = false;
    core::Runtime rt(*net, opts);
    rt.train_iteration(nullptr, nullptr);
    return true;
  } catch (const core::OomError&) {
    return false;
  }
}

/// Largest integer x in [lo, hi] with pred(x) true, assuming monotone pred
/// (pred(lo) must hold; returns lo-1 if it does not).
inline int search_max(int lo, int hi, const std::function<bool(int)>& pred) {
  if (!pred(lo)) return lo - 1;
  while (lo < hi) {
    int mid = lo + (hi - lo + 1) / 2;
    if (pred(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

inline std::string gb(uint64_t bytes) {
  return util::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0), 2);
}

inline std::string mb(uint64_t bytes) {
  return util::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

}  // namespace sn::bench
