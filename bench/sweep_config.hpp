// Declared sweep matrix for bench_sweep: the {net x grid geometry x link
// spec x pool budget} cells one trajectory point records.
//
// The matrix is data, not loops buried in a main(): the small tier is what
// the CI perf-gate runs on every PR and what the committed BENCH_<n>.json
// records (kept to tens of cells so the gate stays inside the smoke budget);
// the full tier widens every axis for a manual look.
// Every cell runs through dist::HybridParallelTrainer — S=1/R=1 degenerate
// to microbatched data parallelism / the plain pipeline / a single device,
// so one driver covers all four geometries with identical accounting.
#pragma once

#include <string>
#include <vector>

namespace sn::bench {

struct SweepCellSpec {
  std::string net;       ///< zoo name (build_network)
  std::string link;      ///< "nvlink" | "pcie" (sim cluster preset)
  int stages = 1;        ///< pipeline depth S
  int replicas = 1;      ///< replica width R
  int microbatches = 1;  ///< per replica column
  int pool_gb = 12;          ///< RuntimeOptions::device_capacity budget
  std::string schedule;      ///< "1f1b" (S > 1) | "-" (S == 1): a cell-key label
  bool peer_staging = false; ///< route pool evictions over idle P2P links
};

/// The cell's identity, e.g. "VGG16/nvlink/s2r1m4/pool12/1f1b": the
/// trajectory cell key without its "sweep/" prefix.
inline std::string cell_key(const SweepCellSpec& s) {
  return s.net + "/" + s.link + "/s" + std::to_string(s.stages) + "r" +
         std::to_string(s.replicas) + "m" + std::to_string(s.microbatches) + "/pool" +
         std::to_string(s.pool_gb) + "/" + s.schedule;
}

/// Expand the declared matrix for a tier ("small" | "full" | "demo"); the
/// demo tier is just the pool-constrained peer-staging cells, cheap enough
/// for CI to run twice (--peer-staging off vs on) and diff the A/B pair.
/// Throws std::invalid_argument on an unknown tier.
inline std::vector<SweepCellSpec> sweep_matrix(const std::string& tier) {
  struct Geometry {
    int stages, replicas, microbatches;
  };
  std::vector<std::string> nets;
  std::vector<std::string> links;
  std::vector<Geometry> geometries;
  std::vector<int> pools_gb;
  if (tier == "small") {
    nets = {"VGG16", "ResNet50"};
    links = {"nvlink"};
    geometries = {{1, 1, 1}, {1, 2, 1}, {2, 1, 4}, {2, 2, 4}, {2, 1, 8}, {4, 1, 8}};
    pools_gb = {12, 6};
  } else if (tier == "full") {
    nets = {"VGG16", "ResNet50", "InceptionV4"};
    links = {"nvlink", "pcie"};
    geometries = {{1, 1, 1}, {1, 2, 1}, {2, 1, 4}, {2, 2, 4},
                  {2, 4, 4}, {4, 2, 4}, {2, 1, 8}, {4, 1, 8}};
    pools_gb = {12, 6};
  } else if (tier != "demo") {
    throw std::invalid_argument("unknown sweep tier " + tier + " (want small|full|demo)");
  }

  std::vector<SweepCellSpec> cells;
  for (const std::string& net : nets) {
    for (const std::string& link : links) {
      for (const Geometry& g : geometries) {
        for (int pool : pools_gb) {
          // Only a pipeline has a schedule to name; S == 1 cells carry the
          // "-" placeholder.
          cells.push_back(SweepCellSpec{net, link, g.stages, g.replicas, g.microbatches, pool,
                                        g.stages > 1 ? "1f1b" : "-"});
        }
      }
    }
  }

  // Pool-constrained peer-staging demo cells: a single microbatch keeps the
  // whole activation set of stage 0 live across the forward, so a 2 GB pool
  // evicts mid-schedule while the peer stage has slack — the geometry the
  // peer-memory router is built for. peer_staging defaults ON here (the
  // bench's --peer-staging off forces the pure-host path for A/B diffs);
  // the m1/pool2 coordinates keep these cell keys disjoint from the grid
  // above, so committed baselines gain them as new cells.
  std::vector<std::string> demo_nets =
      tier == "small" ? std::vector<std::string>{"VGG16"}
                      : std::vector<std::string>{"VGG16", "ResNet50"};
  for (const std::string& net : demo_nets) {
    cells.push_back(SweepCellSpec{net, "nvlink", 2, 1, 1, 2, "1f1b", /*peer_staging=*/true});
  }
  return cells;
}

/// Whether a tier declares the cells bench/sweep_checks.hpp compares. The
/// demo tier holds only the peer-staging cells, so its sweeps skip the checks.
inline bool tier_has_checks(const std::string& tier) { return tier != "demo"; }

}  // namespace sn::bench
