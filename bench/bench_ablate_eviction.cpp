// Ablation — is LRU the right eviction order for training?
//
// The paper (§3.3.2) argues back-propagation's head-to-tail / tail-to-head
// pattern makes LRU a natural fit. This ablation replays a recorded access
// trace of a real training iteration through LRU, FIFO and MRU caches of
// equal capacity and compares miss counts.
//
// The --peer-staging {on,off} axis isolates the peer-memory staging
// contribution from the cache policy: the policy decides WHICH tensors
// evict, the staging router decides WHERE they go (host uplink vs idle P2P
// link). The second table replays the pool-constrained 2-device pipeline
// with the same eviction set and reports the destination split and the
// iteration-time delta. Without the flag both rows run (the axis); with it
// only the selected mode runs.
//
//   ./bench_ablate_eviction [--peer-staging on|off]
#include <cstdio>
#include <deque>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "core/liveness.hpp"
#include "dist/hybrid_parallel.hpp"

namespace {

using namespace sn;

enum class EvictPolicy { kLru, kFifo, kMru };

/// Simulate a fixed-capacity tensor cache over a (uid, bytes) access trace.
uint64_t misses_for(const std::vector<std::pair<uint64_t, uint64_t>>& trace, uint64_t capacity,
                    EvictPolicy policy) {
  std::list<uint64_t> order;  // front = newest
  std::unordered_map<uint64_t, std::pair<std::list<uint64_t>::iterator, uint64_t>> in_cache;
  uint64_t used = 0, misses = 0;
  for (const auto& [uid, bytes] : trace) {
    auto it = in_cache.find(uid);
    if (it != in_cache.end()) {
      if (policy == EvictPolicy::kLru || policy == EvictPolicy::kMru) {
        order.splice(order.begin(), order, it->second.first);  // refresh recency
        it->second.first = order.begin();
      }
      continue;  // hit
    }
    ++misses;
    while (used + bytes > capacity && !order.empty()) {
      uint64_t victim = policy == EvictPolicy::kMru ? order.front() : order.back();
      if (policy == EvictPolicy::kMru) {
        order.pop_front();
      } else {
        order.pop_back();
      }
      used -= in_cache[victim].second;
      in_cache.erase(victim);
    }
    if (bytes > capacity) continue;  // uncacheable
    order.push_front(uid);
    in_cache[uid] = {order.begin(), bytes};
    used += bytes;
  }
  return misses;
}

/// Record the tensor access sequence of one iteration (uses per step).
std::vector<std::pair<uint64_t, uint64_t>> record_trace(graph::Net& net) {
  core::Liveness lv(net);
  std::vector<std::pair<uint64_t, uint64_t>> trace;
  for (const auto& step : net.steps()) {
    for (uint64_t uid : lv.uses(step.index)) {
      const auto* t = net.registry().get(uid);
      trace.emplace_back(uid, t->bytes());
    }
  }
  return trace;
}

/// One pool-constrained 2-device pipeline run (the peer-staging demo
/// geometry: one microbatch pins stage 0's full activation set, a 2 GB pool
/// evicts mid-schedule). Returns the last-iteration stats.
core::IterationStats staging_run(const char* net_name, bool staging) {
  dist::HybridParallelConfig cfg;
  cfg.stages = 2;
  cfg.replicas = 1;
  cfg.microbatches = 1;
  cfg.global_batch = 32;
  cfg.cluster = sim::nvlink_cluster_spec(2);
  cfg.train.iterations = 2;
  cfg.peer_staging = staging;
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons,
                                             cfg.cluster.device);
  o.real = false;
  o.device_capacity = 2ull << 30;
  auto factory = [&](int batch) { return bench::build_network(net_name, batch); };
  dist::HybridParallelTrainer trainer(factory, o, cfg);
  return trainer.run().stats.back();
}

}  // namespace

int main(int argc, char** argv) {
  const char* staging_arg = bench::parse_single_flag(argc, argv, "--peer-staging");
  const std::string staging_mode = staging_arg ? staging_arg : "";  // empty = both rows
  if (!staging_mode.empty() && staging_mode != "on" && staging_mode != "off") {
    std::fprintf(stderr, "--peer-staging must be on|off\n");
    return 2;
  }

  std::printf("Ablation: eviction policy (misses on one iteration's access trace)\n\n");
  util::Table t({"Network", "cache", "LRU misses", "FIFO misses", "MRU misses"});
  struct Cfg {
    const char* name;
    int batch;
    double frac;  // cache capacity as a fraction of the trace's total bytes
  } cfgs[] = {{"AlexNet", 64, 0.3}, {"ResNet50", 16, 0.3}, {"VGG16", 16, 0.3},
              {"AlexNet", 64, 0.6}, {"ResNet50", 16, 0.6}};
  for (const auto& cfg : cfgs) {
    auto net = sn::bench::build_network(cfg.name, cfg.batch);
    auto trace = record_trace(*net);
    uint64_t distinct = 0;
    {
      std::unordered_set<uint64_t> seen;
      for (auto& [uid, b] : trace)
        if (seen.insert(uid).second) distinct += b;
    }
    uint64_t cap = static_cast<uint64_t>(distinct * cfg.frac);
    t.add_row({std::string(cfg.name) + " b" + std::to_string(cfg.batch),
               util::format_double(cfg.frac * 100, 0) + "%",
               std::to_string(misses_for(trace, cap, EvictPolicy::kLru)),
               std::to_string(misses_for(trace, cap, EvictPolicy::kFifo)),
               std::to_string(misses_for(trace, cap, EvictPolicy::kMru))});
  }
  t.print();
  std::printf("\nExpectation: LRU <= FIFO on training traces (tail-to-head reuse), supporting\n"
              "the paper's choice; MRU is the adversarial bound.\n");

  std::printf("\nAblation: eviction destination (peer-memory staging on the pool-constrained\n"
              "2-device pipeline, 2 GB pool, NVLink; same LRU eviction set either way)\n\n");
  util::Table st({"Network", "staging", "evictions", "staged", "d2h MB", "iter (ms)"});
  for (const char* net : {"VGG16", "ResNet50"}) {
    for (bool staging : {false, true}) {
      if (staging_mode == "on" && !staging) continue;
      if (staging_mode == "off" && staging) continue;
      core::IterationStats s = staging_run(net, staging);
      st.add_row({net, staging ? "on" : "off", std::to_string(s.evictions),
                  std::to_string(s.peer_stage_count),
                  util::format_double(static_cast<double>(s.bytes_d2h) / (1 << 20), 1),
                  util::format_double(s.seconds * 1e3, 1)});
    }
  }
  st.print();
  std::printf("\nExpectation: with staging on, evictions reroute to the idle P2P link (d2h -> 0)\n"
              "and the iteration shortens; the eviction count itself is policy-owned and does\n"
              "not move.\n");
  return 0;
}
