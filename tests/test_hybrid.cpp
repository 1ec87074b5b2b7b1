// HybridParallelTrainer tests. Flagship invariant: replicating pipeline
// stages over a 2D device grid NEVER changes training results — S-stage x
// R-replica x M-microbatch training is bit-identical to a single-device run
// over the combined batch (losses AND weights), composing the data-parallel
// and pipeline-parallel parity machinery (pairwise microbatch combine inside
// a replica, halving-doubling all-reduce across a stage's replicas). Every
// parity case also runs the degenerate axes: 1 x R grids (pure data
// parallelism) and S x 1 grids (the plain pipeline). Plus: grid telemetry,
// the IterationStats combine table, memory-pressure invariance, and
// sim-mode scale-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;

core::RuntimeOptions parity_options() {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  // Pin convolutions to the workspace-free algorithm: the dynamic choice
  // depends on free device memory, which legitimately differs between the
  // full-batch and microbatch runs.
  o.allow_workspace = false;
  return o;
}

train::TrainConfig parity_train_config(int iterations) {
  train::TrainConfig tc;
  tc.iterations = iterations;
  tc.lr = 0.05f;
  tc.momentum = 0.9f;
  return tc;
}

using Factory = std::function<std::unique_ptr<graph::Net>(int)>;

/// S x R x M grid shape; the printed form labels failing inputs.
struct Geometry {
  int stages, replicas, microbatches;
};

std::ostream& operator<<(std::ostream& os, const Geometry& g) {
  return os << g.stages << "x" << g.replicas << "x" << g.microbatches;
}

dist::HybridParallelConfig hybrid_config(int stages, int replicas, int microbatches,
                                         int global_batch, int iterations) {
  dist::HybridParallelConfig cfg;
  cfg.stages = stages;
  cfg.replicas = replicas;
  cfg.microbatches = microbatches;
  cfg.global_batch = global_batch;
  cfg.cluster = sim::pcie_cluster_spec(stages * replicas);
  cfg.train = parity_train_config(iterations);
  return cfg;
}

void expect_params_match(core::Runtime& single, dist::HybridParallelTrainer& hyb) {
  // Every cell parameter must end bit-identical to its full-net namesake —
  // on every replica of every stage — and each replica's stages together
  // must hold every full-net layer and parameter exactly once.
  std::map<std::string, const tensor::Tensor*> ref;
  size_t params = 0;
  for (const auto& l : single.net().layers()) {
    for (const auto* p : l->params()) {
      ref.emplace(p->name(), p);
      ++params;
    }
  }
  ASSERT_EQ(ref.size(), params) << "full-net parameter names are not unique";
  for (int r = 0; r < hyb.replicas(); ++r) {
    size_t layers = 0;
    std::set<std::string> held;
    for (int s = 0; s < hyb.stages(); ++s) {
      core::Runtime& rt = hyb.runtime(s, r);
      layers += rt.net().layers().size();
      for (const auto& l : rt.net().layers()) {
        for (const auto* p : l->params()) {
          auto it = ref.find(p->name());
          ASSERT_NE(it, ref.end()) << p->name();
          EXPECT_TRUE(held.insert(p->name()).second)
              << "replica " << r << " holds " << p->name() << " twice";
          EXPECT_EQ(single.read_tensor(it->second), rt.read_tensor(p))
              << "cell (" << s << ", " << r << ") param " << p->name();
        }
      }
    }
    // Every stage after the first adds one synthetic input layer.
    EXPECT_EQ(layers, single.net().layers().size() + static_cast<size_t>(hyb.stages() - 1))
        << "replica " << r;
    EXPECT_EQ(held.size(), ref.size()) << "replica " << r << " is missing parameters";
  }
}

dist::HybridParallelConfig hybrid_config(const Geometry& g, int global_batch, int iterations) {
  return hybrid_config(g.stages, g.replicas, g.microbatches, global_batch, iterations);
}

/// Extra assertions on a grid that already passed the parity check.
using GridCheck =
    std::function<void(dist::HybridParallelTrainer&, const dist::HybridParallelReport&)>;

/// Train `cfg` on the grid and on one device over the combined batch,
/// require bit-identical losses and final weights on every cell, then hand
/// the trained grid to `check`.
void expect_grid_matches_single_device(const Factory& factory,
                                       const dist::HybridParallelConfig& cfg,
                                       const GridCheck& check = {}) {
  core::RuntimeOptions o = parity_options();
  auto net = factory(cfg.global_batch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, cfg.train);
  auto single = trainer.run();

  dist::HybridParallelTrainer hyb(factory, o, cfg);
  auto rep = hyb.run();
  ASSERT_EQ(single.losses.size(), static_cast<size_t>(cfg.train.iterations));
  EXPECT_EQ(single.losses, rep.losses);
  expect_params_match(rt, hyb);
  if (check) check(hyb, rep);
}

TEST(HybridParallel, GridsMatchSingleDeviceBitForBit) {
  // 2x2x4 is the flagship; 2x4x2 and 1x4x1 exercise the >2-rank pairwise
  // tree, which only the halving-doubling collective reproduces exactly;
  // 1x2x1 / 1x4x1 are pure data parallelism, 2x1x4 the plain pipeline.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  for (Geometry g : {Geometry{2, 2, 4}, Geometry{2, 4, 2}, Geometry{1, 2, 1},
                     Geometry{1, 4, 1}, Geometry{2, 1, 4}}) {
    SCOPED_TRACE(::testing::Message() << "grid " << g);
    expect_grid_matches_single_device(factory, hybrid_config(g, 8, 5));
  }
}

TEST(HybridParallel, FanJoinNetMatchesSingleDevice) {
  auto factory = [](int batch) { return graph::build_tiny_fanjoin(batch); };
  for (Geometry g : {Geometry{2, 2, 2}, Geometry{2, 1, 2}}) {
    SCOPED_TRACE(::testing::Message() << "grid " << g);
    expect_grid_matches_single_device(
        factory, hybrid_config(g, 8, 4),
        [](dist::HybridParallelTrainer&, const dist::HybridParallelReport& rep) {
          EXPECT_LT(rep.last_loss(), rep.first_loss());
        });
  }
}

TEST(HybridParallel, ReplicasStayInBitwiseLockstep) {
  struct Case {
    Factory factory;
    Geometry grid;
  };
  const Case cases[] = {
      {[](int batch) { return graph::build_tiny_linear(batch, 16); }, {2, 2, 2}},
      {[](int batch) { return graph::build_tiny_fanjoin(batch); }, {1, 2, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "grid " << c.grid);
    auto cfg = hybrid_config(c.grid, 8, 12);
    cfg.cluster = sim::nvlink_cluster_spec(c.grid.stages * c.grid.replicas);
    dist::HybridParallelTrainer hyb(c.factory, parity_options(), cfg);
    auto rep = hyb.run();
    EXPECT_LT(rep.last_loss(), rep.first_loss());
    for (int s = 0; s < hyb.stages(); ++s) {
      const auto& l0 = hyb.runtime(s, 0).net().layers();
      const auto& l1 = hyb.runtime(s, 1).net().layers();
      ASSERT_EQ(l0.size(), l1.size());
      for (size_t li = 0; li < l0.size(); ++li) {
        const auto& p0 = l0[li]->params();
        const auto& p1 = l1[li]->params();
        ASSERT_EQ(p0.size(), p1.size());
        for (size_t pi = 0; pi < p0.size(); ++pi) {
          EXPECT_EQ(hyb.runtime(s, 0).read_tensor(p0[pi]), hyb.runtime(s, 1).read_tensor(p1[pi]))
              << "stage " << s << " param " << p0[pi]->name();
        }
      }
    }
  }
}

TEST(HybridParallel, MemoryPressureInsideCellsDoesNotChangeLosses) {
  // The paper's invariant, lifted across BOTH axes: squeezing every cell's
  // pool (forcing offload/eviction/recompute inside cells) must not change
  // training results — on the full grid and on each degenerate axis.
  auto run = [](const Geometry& g, uint64_t capacity) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
    core::RuntimeOptions o = parity_options();
    o.device_capacity = capacity;
    dist::HybridParallelTrainer hyb(factory, o, hybrid_config(g, 8, 6));
    return hyb.run().losses;
  };
  for (Geometry g : {Geometry{2, 2, 2}, Geometry{1, 2, 1}, Geometry{2, 1, 2}}) {
    EXPECT_EQ(run(g, 64ull << 20), run(g, 1ull << 20)) << "grid " << g;
  }
}

TEST(HybridParallel, GridTelemetryIsVisiblePerCell) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer hyb(factory, parity_options(), hybrid_config(2, 2, 2, 8, 2));
  auto rep = hyb.run();
  ASSERT_EQ(rep.stats.size(), 2u);
  ASSERT_EQ(rep.cell_stats[0].size(), 2u);
  ASSERT_EQ(rep.cell_stats[0][0].size(), 2u);
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 2; ++r) {
      const auto& st = rep.cell_stats.back()[static_cast<size_t>(s)][static_cast<size_t>(r)];
      // Every cell streams activations or gradients AND all-reduce hops.
      EXPECT_GT(st.p2p_bytes, 0u) << "cell (" << s << ", " << r << ")";
      EXPECT_GT(st.allreduce_seconds, 0.0) << "cell (" << s << ", " << r << ")";
      EXPECT_GT(st.seconds, 0.0);
      // Per-step telemetry carries the full grid coordinates.
      const auto& tele = hyb.runtime(s, r).step_telemetry().front();
      EXPECT_EQ(tele.device_id, hyb.grid().device(s, r));
      EXPECT_EQ(tele.stage, s);
      EXPECT_EQ(tele.replica, r);
    }
  }
  // The downstream stage idles during fill: its bubble must be visible.
  EXPECT_GT(rep.stats[1].bubble_seconds, 0.0);
  EXPECT_GT(rep.stats[1].allreduce_seconds, 0.0);
}

TEST(HybridParallel, SimModeScalesToZooNets) {
  // Pure simulation (no backing): paper-scale grids still schedule, and the
  // P2P streams and collectives advance virtual time.
  struct Case {
    Factory factory;
    Geometry grid;
    int global_batch;
    int iterations;
  };
  const Case cases[] = {
      {[](int batch) { return graph::build_vgg(16, batch); }, {2, 4, 2}, 64, 1},
      {[](int batch) { return graph::build_mini_alexnet(batch); }, {1, 4, 1}, 64, 2},
  };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "grid " << c.grid);
    auto cfg = hybrid_config(c.grid, c.global_batch, c.iterations);
    cfg.cluster = sim::nvlink_cluster_spec(c.grid.stages * c.grid.replicas);
    dist::HybridParallelTrainer hyb(c.factory, o, cfg);
    auto rep = hyb.run();
    ASSERT_EQ(rep.stats.size(), static_cast<size_t>(c.iterations));
    EXPECT_EQ(rep.losses[0], 0.0);  // unbacked: no numerics
    EXPECT_GT(rep.stats[0].seconds, 0.0);
    EXPECT_GT(rep.stats[0].p2p_bytes, 0u);
    EXPECT_GT(rep.stats[0].allreduce_seconds, 0.0);
    ASSERT_EQ(rep.cell_stats[0].size(), static_cast<size_t>(c.grid.stages));
    ASSERT_EQ(rep.cell_stats[0][0].size(), static_cast<size_t>(c.grid.replicas));
  }
}

TEST(HybridParallel, OneF1BBucketedAllreduceMatchesSingleDeviceBitForBit) {
  // 2 x 2 x 4 under PipeDream-flush WITH asynchronous bucketed all-reduce:
  // the schedule retires backwards out of order and the update splits into
  // chained sub-group collectives, yet losses AND weights must still be
  // bit-identical to the single-device run — bucketing slices the fused
  // vector, and each element's halving-doubling rank-combine tree is
  // independent of segmentation. Gradients are snapshotted per microbatch
  // and combined in ascending-m pairwise order regardless of when each
  // backward ran, so the plain 2 x 1 pipeline holds too.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  for (Geometry g : {Geometry{2, 2, 4}, Geometry{2, 1, 4}}) {
    SCOPED_TRACE(::testing::Message() << "grid " << g);
    auto cfg = hybrid_config(g, 8, 5);
    cfg.bucket_bytes = 256;  // tiny buckets: force a real multi-bucket chain
    expect_grid_matches_single_device(
        factory, cfg, [](dist::HybridParallelTrainer& hyb, const dist::HybridParallelReport&) {
          for (int s = 0; s < hyb.stages(); ++s) EXPECT_GT(hyb.buckets(s), 1) << "stage " << s;
        });
  }
}

TEST(HybridParallel, BucketSizeDoesNotChangeResults) {
  // One mega-bucket vs many tiny buckets: identical trajectories. The
  // bucket axis is pure overlap mechanics, never numerics.
  auto run = [](uint64_t bucket_bytes) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
    auto cfg = hybrid_config(2, 2, 4, 8, 4);
    cfg.bucket_bytes = bucket_bytes;
    dist::HybridParallelTrainer hyb(factory, parity_options(), cfg);
    return hyb.run().losses;
  };
  EXPECT_EQ(run(64ull << 20), run(128));
}

TEST(HybridParallel, DataParallelRowAllReducesInOneExposedBucket) {
  // S = 1 has no drain for buckets to overlap: a 1 x 2 row all-reduces its
  // whole gradient as one bucket after its last backward, and all of that
  // collective is exposed. A bucket size far below the gradient must not
  // split it.
  auto factory = [](int batch) { return graph::build_vgg(16, batch); };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  auto cfg = hybrid_config(1, 2, 1, 32, 2);
  cfg.cluster = sim::nvlink_cluster_spec(2);
  ASSERT_EQ(cfg.bucket_bytes, 4ull << 20);
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  EXPECT_EQ(hyb.buckets(0), 1);
  auto rep = hyb.run();
  for (const core::IterationStats& st : rep.stats) {
    EXPECT_GT(st.allreduce_seconds, 0.0);
    EXPECT_EQ(st.allreduce_exposed_seconds, st.allreduce_seconds);
  }
}

TEST(HybridParallel, RejectsBadConfigs) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();
  // Batch does not divide across replicas (also on a 1 x R row).
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(2, 3, 1, 8, 1)),
               std::invalid_argument);
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(1, 3, 1, 8, 1)),
               std::invalid_argument);
  // Shard does not divide into microbatches (also on an S x 1 column).
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(2, 2, 3, 8, 1)),
               std::invalid_argument);
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(2, 1, 3, 8, 1)),
               std::invalid_argument);
  // Boundary count must be stages - 1.
  for (int replicas : {2, 1}) {
    auto cfg = hybrid_config(3, replicas, 2, 8, 1);
    cfg.boundaries = {2};
    EXPECT_THROW(dist::HybridParallelTrainer(factory, o, cfg), std::invalid_argument);
  }
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(0, 2, 2, 8, 1)),
               std::invalid_argument);
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(0, 1, 2, 8, 1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// IterationStats combine table

TEST(StatRules, EveryIterationStatsFieldHasExactlyOneRule) {
  static_assert(sizeof(core::IterationStats) == 8 * core::kStatRules.size());
  // Each entry names a distinct field: together they tile the struct.
  core::IterationStats st;
  const auto* base = reinterpret_cast<const char*>(&st);
  std::vector<bool> seen(core::kStatRules.size(), false);
  for (const core::StatField& f : core::kStatRules) {
    ASSERT_NE(f.real == nullptr, f.count == nullptr) << f.name;
    const char* addr = f.real ? reinterpret_cast<const char*>(&(st.*f.real))
                              : reinterpret_cast<const char*>(&(st.*f.count));
    const size_t slot = static_cast<size_t>(addr - base) / 8;
    ASSERT_LT(slot, seen.size()) << f.name;
    EXPECT_FALSE(seen[slot]) << f.name << " shares a field with another entry";
    seen[slot] = true;
  }
}

TEST(StatRules, GridAggregateIsTheTableCombineOfCellStats) {
  // A pressured 2x2 run on the native allocator: cells evict, offload, hit
  // their tensor caches and pay allocator latency, so the counters the
  // hand-written aggregate used to drop are live. The aggregate must equal
  // the table fold of the cells field for field.
  auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
  core::RuntimeOptions o = parity_options();
  o.use_pool_allocator = false;
  o.recompute = core::RecomputeMode::kNone;
  o.use_liveness = false;
  o.device_capacity = 3ull << 18;
  auto cfg = hybrid_config(2, 2, 2, 32, 2);
  cfg.boundaries = {9};
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  auto rep = hyb.run();
  for (size_t it = 0; it < rep.stats.size(); ++it) {
    const core::IterationStats& agg = rep.stats[it];
    for (const core::StatField& f : core::kStatRules) {
      if (f.rule == core::StatRule::kTrainer) continue;
      const bool sum = f.rule == core::StatRule::kSum;
      double expect_real = 0.0;
      uint64_t expect_count = 0;
      for (const auto& row : rep.cell_stats[it]) {
        for (const core::IterationStats& st : row) {
          if (f.real) {
            expect_real = sum ? expect_real + st.*f.real : std::max(expect_real, st.*f.real);
          } else {
            expect_count =
                sum ? expect_count + st.*f.count : std::max(expect_count, st.*f.count);
          }
        }
      }
      if (f.real) {
        EXPECT_EQ(agg.*f.real, expect_real) << "iteration " << it << " field " << f.name;
      } else {
        EXPECT_EQ(agg.*f.count, expect_count) << "iteration " << it << " field " << f.name;
      }
    }
  }
  const core::IterationStats& last = rep.stats.back();
  EXPECT_GT(last.cache_hits + last.cache_misses, 0u);
  EXPECT_GT(last.malloc_seconds, 0.0);
  EXPECT_GT(last.d2h_seconds, 0.0);
  EXPECT_GT(last.h2d_seconds, 0.0);
  EXPECT_GT(last.evictions, 0u);
}

}  // namespace
