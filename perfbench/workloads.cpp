// The two benchmark workloads and their live oracles.
//
//   real-pressure  one device, real numerics, kSuperNeurons, capacity
//                  params + 6 * max_layer_bytes (the tightest multiple that
//                  trains at 8 px): every iteration evicts, offloads over the
//                  live DMA workers and replays segments.
//   real-grid      real numerics on a 2x2 HybridParallelTrainer grid (M=4,
//                  1F1B, bucketed async all-reduce, peer staging on a tight
//                  pool): the only workload where dist/ does work.
//
// The conv algorithm is pinned (allow_workspace = false) on both
// workloads so the oracle's numerics are comparable bit for bit.
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/layers.hpp"
#include "graph/zoo.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "sim/cluster.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace sn;

namespace {

// --- shared geometry ----------------------------------------------------------

// Residual net for real-pressure. 8 px keeps an iteration near 0.1 s on the
// one CPU the benchmark runs on, so a timed window holds well over the 100
// iterations its p90 needs (ten samples beyond it).
constexpr int kResBatch = 8;
constexpr int kResUnits = 16;
constexpr int kResImage = 8;

// Hybrid grid: 2 stages x 2 replicas, 4 microbatches per replica column.
constexpr int kGridStages = 2;
constexpr int kGridReplicas = 2;
constexpr int kGridMicrobatches = 4;
constexpr int kGridBatch = 32;
constexpr int kGridImage = 32;

// Small enough that the loss stays finite and away from softmax saturation
// over a whole window, including the grid's repeated batch 0.
constexpr float kLr = 0.002f;
constexpr float kMomentum = 0.9f;

uint64_t data_seed(uint64_t seed) { return 0xDA7A0000ull + seed; }
uint64_t weight_seed(uint64_t seed) { return 0x5EEDBA5Eull ^ (seed * 0x9E3779B97F4A7C15ull); }

std::unique_ptr<graph::Net> residual_net(int batch) {
  return graph::build_tiny_resnet(batch, kResUnits, kResImage);
}

std::unique_ptr<graph::Net> grid_net(int batch) {
  // Per-sample kernels only (no BatchNorm, no dropout): the grid is
  // bit-identical to the single-device combined-batch run only then.
  return graph::build_tiny_fanjoin(batch, kGridImage);
}

/// Bytes of every parameter and parameter-gradient tensor of `net`.
uint64_t param_bytes(const graph::Net& net) {
  uint64_t b = 0;
  for (const auto& l : net.layers()) {
    for (const auto* p : l->params()) b += p->bytes();
    for (const auto* g : l->param_grads()) b += g->bytes();
  }
  return b;
}

train::SyntheticDataset dataset_for(const graph::Net& net, uint64_t seed) {
  tensor::Shape s = net.input_layer()->out_shape();
  s.n = 1;
  return train::SyntheticDataset(s, static_cast<int>(net.loss_layer()->out_shape().c),
                                 data_seed(seed));
}

/// fwd + bwd pass counters as one iteration (train_iteration's view).
core::IterationStats merge_passes(const core::IterationStats& f, const core::IterationStats& b) {
  core::IterationStats s = b;
  s.seconds = f.seconds + b.seconds;
  s.peak_mem = std::max(f.peak_mem, b.peak_mem);
  s.host_peak = std::max(f.host_peak, b.host_peak);
  s.bytes_d2h += f.bytes_d2h;
  s.bytes_h2d += f.bytes_h2d;
  s.extra_forwards += f.extra_forwards;
  s.evictions += f.evictions;
  s.cache_hits += f.cache_hits;
  s.cache_misses += f.cache_misses;
  s.allocs += f.allocs;
  s.stall_seconds += f.stall_seconds;
  s.dma_copies += f.dma_copies;
  s.peer_stage_count += f.peer_stage_count;
  return s;
}

uint64_t shift(OracleFault f) { return f == OracleFault::kShiftedData ? 1 : 0; }

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::map<std::string, const tensor::Tensor*> params_by_name(const graph::Net& net) {
  std::map<std::string, const tensor::Tensor*> out;
  for (const auto& l : net.layers())
    for (const auto* p : l->params()) out[p->name()] = p;
  return out;
}

/// Compare `got` losses and `rt`'s weights with the oracle's; appends one
/// line per mismatch and returns the number of failing iterations (a weight
/// mismatch fails the last prefix iteration).
uint64_t compare_with_oracle(const std::vector<double>& got, const std::vector<double>& want,
                             const std::vector<std::pair<core::Runtime*, const graph::Net*>>& cells,
                             core::Runtime& oracle, OracleFault fault,
                             std::vector<std::string>* problems) {
  uint64_t failed = 0;
  bool last_failed = false;
  for (size_t i = 0; i < got.size(); ++i) {
    const bool ok = std::isfinite(got[i]) && i < want.size() && same_bits(got[i], want[i]);
    if (!ok) {
      ++failed;
      last_failed = i + 1 == got.size();
      problems->push_back("loss mismatch at iteration " + std::to_string(i) + ": " +
                          std::to_string(got[i]) + " vs oracle " +
                          (i < want.size() ? std::to_string(want[i]) : std::string("none")));
    }
  }
  const auto ref = params_by_name(oracle.net());
  size_t compared = 0;
  for (const auto& [rt, net] : cells) {
    for (const auto& [name, p] : params_by_name(*net)) {
      auto it = ref.find(name);
      if (it == ref.end()) {
        problems->push_back("parameter " + name + " has no oracle counterpart");
        if (!last_failed) ++failed, last_failed = true;
        continue;
      }
      const std::vector<float> a = rt->read_tensor(p);
      std::vector<float> b = oracle.read_tensor(it->second);
      if (fault == OracleFault::kOneUlpWeight && compared == 0 && !b.empty())
        b[0] = std::nextafter(b[0], INFINITY);
      ++compared;
      if (a.size() != b.size() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float))) {
        problems->push_back("weights of " + name + " differ from the oracle");
        if (!last_failed) ++failed, last_failed = true;
      }
    }
  }
  if (compared == 0) {
    problems->push_back("no parameters compared");
    if (!last_failed) ++failed;
  }
  return failed;
}

/// kBaselineNaive at ample capacity, algorithm pinned: nothing is scheduled
/// away, so this is the reference every memory schedule must reproduce.
core::RuntimeOptions oracle_options(const graph::Net& net, uint64_t seed) {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kBaselineNaive);
  o.real = true;
  o.allow_workspace = false;
  o.device_capacity = 2 * net.total_tensor_bytes() + (8ull << 20);
  o.host_capacity = 64ull << 20;
  o.seed = weight_seed(seed);
  return o;
}

// --- kernel replay ---------------------------------------------------------------

/// Replays one net's conv / FC kernels with the pinned (workspace-free)
/// algorithm on buffers shaped like the layers'. Buffers are allocated and
/// filled once, outside the timed region.
class KernelReplay {
 public:
  /// `repeats`: how often one training iteration runs each layer (the
  /// microbatch count on the grid).
  KernelReplay(const graph::Net& net, int repeats, uint64_t seed) : repeats_(repeats) {
    util::Rng rng(seed);
    auto fill = [&](size_t n) {
      std::vector<float> v(n);
      for (auto& x : v) x = rng.uniform(-0.5f, 0.5f);
      return v;
    };
    for (const graph::Layer* l : net.route()) {
      if (l->type() == graph::LayerType::kConv) {
        const auto& d = static_cast<const graph::ConvLayer*>(l)->desc();
        Conv c;
        c.d = d;
        c.x = fill(d.in_elems());
        c.w = fill(d.weight_elems());
        c.b = fill(static_cast<size_t>(d.k));
        c.y.resize(d.out_elems());
        c.dy = fill(d.out_elems());
        c.dx.resize(d.in_elems());
        c.dw.resize(d.weight_elems());
        c.db.resize(static_cast<size_t>(d.k));
        convs_.push_back(std::move(c));
      } else if (l->type() == graph::LayerType::kFc) {
        const auto* fc = static_cast<const graph::FcLayer*>(l);
        const tensor::Shape& in = l->prevs().at(0)->out_shape();
        Fc f;
        f.n = static_cast<int>(l->out_shape().n);
        f.d = static_cast<int>(in.c * in.h * in.w);
        f.k = fc->out_features();
        f.x = fill(static_cast<size_t>(f.n) * f.d);
        f.w = fill(static_cast<size_t>(f.k) * f.d);
        f.y.resize(static_cast<size_t>(f.n) * f.k);
        f.dy = fill(static_cast<size_t>(f.n) * f.k);
        f.dx.resize(static_cast<size_t>(f.n) * f.d);
        fcs_.push_back(std::move(f));
      }
    }
  }

  /// Add one iteration's worth of every kernel to `out`.
  void run_once(Tracer& tr, KernelTimes* out) {
    for (int r = 0; r < repeats_; ++r) replay(tr, out);
  }

 private:
  void replay(Tracer& tr, KernelTimes* out) {
    constexpr auto kAlgo = nn::ConvAlgo::kDirect;
    for (auto& c : convs_) {
      {
        ScopedSpan s(tr, "nn.conv_fwd", -1);
        const auto t0 = Clock::now();
        nn::conv_forward(c.d, kAlgo, c.x.data(), c.w.data(), c.b.data(), c.y.data(), nullptr);
        out->conv_fwd_s += seconds_since(t0);
      }
      {
        ScopedSpan s(tr, "nn.conv_bwd_data", -1);
        const auto t0 = Clock::now();
        nn::conv_backward_data(c.d, kAlgo, c.w.data(), c.dy.data(), c.dx.data(), nullptr);
        out->conv_bwd_data_s += seconds_since(t0);
      }
      {
        ScopedSpan s(tr, "nn.conv_bwd_filter", -1);
        const auto t0 = Clock::now();
        nn::conv_backward_filter(c.d, kAlgo, c.x.data(), c.dy.data(), c.dw.data(), c.db.data(),
                                 nullptr);
        out->conv_bwd_filter_s += seconds_since(t0);
      }
      out->conv_flops += nn::conv_flops(c.d, nn::ConvPass::kForward) +
                         nn::conv_flops(c.d, nn::ConvPass::kBackwardData) +
                         nn::conv_flops(c.d, nn::ConvPass::kBackwardFilter);
    }
    for (auto& f : fcs_) {
      ScopedSpan s(tr, "nn.fc", -1);
      const auto t0 = Clock::now();
      // The two GEMMs an FC layer issues: y = x W^T and dx += dy W.
      nn::sgemm(false, true, f.n, f.k, f.d, 1.0f, f.x.data(), f.d, f.w.data(), f.d, 0.0f,
                f.y.data(), f.k);
      nn::sgemm(false, false, f.n, f.d, f.k, 1.0f, f.dy.data(), f.k, f.w.data(), f.d, 1.0f,
                f.dx.data(), f.d);
      out->fc_s += seconds_since(t0);
    }
  }

  struct Conv {
    nn::ConvDesc d;
    std::vector<float> x, w, b, y, dy, dx, dw, db;
  };
  struct Fc {
    int n = 0, d = 0, k = 0;
    std::vector<float> x, w, y, dy, dx;
  };
  int repeats_;
  std::vector<Conv> convs_;
  std::vector<Fc> fcs_;
};

/// Median over `reps` replays of each kernel kind.
void replay_median(std::vector<KernelReplay>& replays, Tracer& tr, int reps, KernelTimes* out) {
  std::vector<double> fwd, bd, bf, fc;
  double flops = 0.0;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan s(tr, "nn.replay", -1);
    KernelTimes k;
    for (auto& rp : replays) rp.run_once(tr, &k);
    fwd.push_back(k.conv_fwd_s);
    bd.push_back(k.conv_bwd_data_s);
    bf.push_back(k.conv_bwd_filter_s);
    fc.push_back(k.fc_s);
    flops = k.conv_flops;
  }
  out->conv_fwd_s = median(fwd);
  out->conv_bwd_data_s = median(bd);
  out->conv_bwd_filter_s = median(bf);
  out->fc_s = median(fc);
  out->conv_flops = flops;
}

// --- single device ---------------------------------------------------------------

struct SingleConfig {
  core::RuntimeOptions opts;
  std::function<std::unique_ptr<graph::Net>()> build;
};

class SingleSession final : public Session {
 public:
  SingleSession(SingleConfig cfg, uint64_t seed)
      : cfg_(std::move(cfg)),
        seed_(seed),
        net_(cfg_.build()),
        rt_(std::make_unique<core::Runtime>(*net_, cfg_.opts)),
        batch_(static_cast<int>(net_->input_layer()->out_shape().n)),
        data_(dataset_for(*net_, seed)) {
    rt_->initialize();
    x_.resize(static_cast<size_t>(batch_) * data_.sample_elems());
    y_.resize(static_cast<size_t>(batch_));
  }

  IterRecord step(Tracer& tr, int64_t iter) override {
    IterRecord rec;
    const auto t0 = Clock::now();
    {
      ScopedSpan it(tr, "iteration", iter);
      {
        ScopedSpan s(tr, "train.fill_batch", iter);
        data_.fill_batch(batch_, next_batch_++, x_.data(), y_.data());
      }
      core::IterationStats f, b;
      {
        ScopedSpan s(tr, "runtime.fwd", iter);
        f = rt_->forward_pass(x_.data(), y_.data());
      }
      {
        ScopedSpan s(tr, "runtime.bwd", iter);
        b = rt_->backward_pass(y_.data());
      }
      rt_->advance_iteration();
      {
        ScopedSpan s(tr, "runtime.sgd", iter);
        rt_->apply_sgd(kLr, kMomentum);
      }
      rec.stats = merge_passes(f, b);
    }
    rec.wall_s = seconds_since(t0);
    rec.loss = rec.stats.loss;
    return rec;
  }

  CheckOutcome check_prefix(int iters, OracleFault fault) override {
    CheckOutcome out;
    out.iterations = static_cast<uint64_t>(iters);
    Tracer off(false);
    std::vector<IterRecord> recs;
    for (int i = 0; i < iters; ++i) recs.push_back(step(off, i));

    auto onet = cfg_.build();
    core::Runtime oracle(*onet, oracle_options(*onet, seed_));
    train::Trainer trainer(oracle, {.iterations = iters,
                                    .lr = kLr,
                                    .momentum = kMomentum,
                                    .weight_decay = 0.0f,
                                    .data_seed = data_seed(seed_ + shift(fault))});
    const train::TrainReport rep = trainer.run();
    std::vector<double> got;
    for (const auto& r : recs) got.push_back(r.loss);
    out.failed = compare_with_oracle(got, rep.losses, {{rt_.get(), net_.get()}}, oracle, fault,
                                     &out.problems);
    return out;
  }

  void replay_kernels(Tracer& tr, int reps, KernelTimes* out) override {
    std::vector<KernelReplay> replays;
    replays.emplace_back(*net_, 1, seed_);
    replay_median(replays, tr, reps, out);
  }

  uint64_t forward_steps() const override { return net_->route().size(); }
  int samples_per_step() const override { return batch_; }
  uint64_t capacity() const override { return cfg_.opts.device_capacity; }

 private:
  SingleConfig cfg_;
  uint64_t seed_;
  std::unique_ptr<graph::Net> net_;
  std::unique_ptr<core::Runtime> rt_;
  int batch_;
  train::SyntheticDataset data_;
  std::vector<float> x_;
  std::vector<int32_t> y_;
  uint64_t next_batch_ = 0;
};

SingleConfig pressure_config(uint64_t seed) {
  SingleConfig c;
  c.build = [] { return residual_net(kResBatch); };
  const auto probe = c.build();
  c.opts = core::make_policy(core::PolicyPreset::kSuperNeurons);
  c.opts.real = true;
  c.opts.allow_workspace = false;
  c.opts.seed = weight_seed(seed);
  c.opts.host_capacity = 64ull << 20;
  c.opts.device_capacity = param_bytes(*probe) + 6 * probe->max_layer_bytes();
  return c;
}

// --- hybrid grid -----------------------------------------------------------------

class GridSession final : public Session {
 public:
  explicit GridSession(uint64_t seed, uint64_t capacity) : seed_(seed) {
    base_ = core::make_policy(core::PolicyPreset::kSuperNeurons);
    base_.real = true;
    base_.allow_workspace = false;
    base_.seed = weight_seed(seed);
    base_.host_capacity = 64ull << 20;
    base_.device_capacity = capacity;

    dist::HybridParallelConfig cfg;
    cfg.stages = kGridStages;
    cfg.replicas = kGridReplicas;
    cfg.microbatches = kGridMicrobatches;
    cfg.global_batch = kGridBatch;
    cfg.schedule = dist::SchedulePolicy::k1F1B;
    cfg.bucket_bytes = 16ull << 10;  // several buckets per stage: async chain
    cfg.peer_staging = true;
    cfg.peer_donation_bytes = capacity / 2;
    cfg.cluster = sim::nvlink_cluster_spec(kGridStages * kGridReplicas);
    // run() restarts its batch index on every call: one iteration per call,
    // so every timed iteration trains on global batch 0.
    cfg.train = {.iterations = 1,
                 .lr = kLr,
                 .momentum = kMomentum,
                 .weight_decay = 0.0f,
                 .data_seed = data_seed(seed)};
    hyb_ = std::make_unique<dist::HybridParallelTrainer>(grid_net, base_, cfg);
  }

  IterRecord step(Tracer& tr, int64_t iter) override {
    IterRecord rec;
    const auto t0 = Clock::now();
    dist::HybridParallelReport rep;
    {
      ScopedSpan it(tr, "iteration", iter);
      ScopedSpan s(tr, "dist.run", iter);
      rep = hyb_->run();
    }
    rec.wall_s = seconds_since(t0);
    rec.loss = rep.losses.at(0);
    rec.stats = rep.stats.at(0);
    // The grid aggregate omits the cache counters; sum them per cell.
    for (const auto& row : rep.cell_stats.at(0))
      for (const auto& st : row) {
        rec.stats.cache_hits += st.cache_hits;
        rec.stats.cache_misses += st.cache_misses;
      }
    return rec;
  }

  CheckOutcome check_prefix(int iters, OracleFault fault) override {
    CheckOutcome out;
    out.iterations = static_cast<uint64_t>(iters);
    Tracer off(false);
    std::vector<double> got;
    for (int i = 0; i < iters; ++i) got.push_back(step(off, i).loss);

    // Oracle: one device, combined batch, the same batch 0 every iteration.
    auto onet = grid_net(kGridBatch);
    core::Runtime oracle(*onet, oracle_options(*onet, seed_));
    train::Trainer trainer(oracle, {.iterations = iters, .lr = kLr, .momentum = kMomentum});
    const train::SyntheticDataset data = dataset_for(*onet, seed_ + shift(fault));
    std::vector<float> x(static_cast<size_t>(kGridBatch) * data.sample_elems());
    std::vector<int32_t> y(static_cast<size_t>(kGridBatch));
    data.fill_batch(kGridBatch, 0, x.data(), y.data());
    std::vector<double> want;
    for (int i = 0; i < iters; ++i) want.push_back(trainer.step(x.data(), y.data()).loss);

    std::vector<std::pair<core::Runtime*, const graph::Net*>> cells;
    each_cell([&](int s, int r) {
      cells.emplace_back(&hyb_->runtime(s, r), &hyb_->stage_net(s, r));
    });
    out.failed = compare_with_oracle(got, want, cells, oracle, fault, &out.problems);
    return out;
  }

  void replay_kernels(Tracer& tr, int reps, KernelTimes* out) override {
    // Each cell runs its stage net once per microbatch.
    std::vector<KernelReplay> replays;
    each_cell([&](int s, int r) {
      replays.emplace_back(hyb_->stage_net(s, r), kGridMicrobatches, seed_);
    });
    replay_median(replays, tr, reps, out);
  }

  uint64_t forward_steps() const override {
    uint64_t n = 0;
    each_cell([&](int s, int r) { n += hyb_->stage_net(s, r).route().size(); });
    return n * kGridMicrobatches;
  }
  int samples_per_step() const override { return kGridBatch; }
  uint64_t capacity() const override { return base_.device_capacity; }
  bool grid() const override { return true; }

 private:
  template <typename F>
  void each_cell(F f) const {
    for (int s = 0; s < kGridStages; ++s)
      for (int r = 0; r < kGridReplicas; ++r) f(s, r);
  }

  uint64_t seed_;
  core::RuntimeOptions base_;
  std::unique_ptr<dist::HybridParallelTrainer> hyb_;
};

/// Grid pool: the microbatch net's parameters plus its largest layer — tight
/// enough that evictions ride idle peer links.
uint64_t grid_capacity() {
  const auto probe = grid_net(kGridBatch / (kGridReplicas * kGridMicrobatches));
  return param_bytes(*probe) + probe->max_layer_bytes();
}

}  // namespace

std::unique_ptr<Session> make_session(const std::string& name, uint64_t seed) {
  if (name == "real-pressure") return std::make_unique<SingleSession>(pressure_config(seed), seed);
  if (name == "real-grid") return std::make_unique<GridSession>(seed, grid_capacity());
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
