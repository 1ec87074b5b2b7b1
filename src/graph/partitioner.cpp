#include "graph/partitioner.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <unordered_set>

namespace sn::graph {

NetPartitioner::NetPartitioner(const Net& net, sim::DeviceSpec spec, sim::LinkSpec link,
                               uint64_t device_capacity, LayerCostFn observed)
    : net_(net), cost_(std::move(spec)), link_(std::move(link)),
      device_capacity_(device_capacity), observed_(std::move(observed)) {
  if (!net.finalized()) throw std::logic_error("NetPartitioner: net must be finalized");
  const auto& route = net_.route();
  const int n = static_cast<int>(route.size());

  pos_.assign(net_.num_layers(), -1);
  for (int i = 0; i < n; ++i) pos_[static_cast<size_t>(route[i]->id())] = i;

  // Balance prefixes: observed per-layer seconds when a profile provides
  // them (profile-guided partitioning), the analytic roofline otherwise.
  // With observed_ null this is exactly the legacy computation, so the cuts
  // stay byte-identical.
  prefix_.assign(static_cast<size_t>(n) + 1, 0.0);
  fwd_prefix_.assign(static_cast<size_t>(n) + 1, 0.0);
  for (int i = 0; i < n; ++i) {
    const Layer* l = route[i];
    double fwd = cost_.compute_time(l->forward_flops(), static_cast<double>(l->forward_bytes()),
                                    l->compute_efficiency());
    double bwd = cost_.compute_time(l->backward_flops(),
                                    static_cast<double>(l->backward_bytes()),
                                    l->compute_efficiency());
    if (observed_) {
      double ofwd = 0.0, obwd = 0.0;
      if (observed_(l->name(), &ofwd, &obwd)) {
        fwd = ofwd;
        bwd = obwd;
      }
    }
    // Parenthesized (fwd + bwd) first: the same association layer_seconds()
    // used, so analytic prefixes stay bit-identical to the legacy ctor.
    prefix_[i + 1] = prefix_[i] + (fwd + bwd);
    fwd_prefix_[i + 1] = fwd_prefix_[i] + fwd;
  }

  persist_prefix_.assign(static_cast<size_t>(n) + 1, 0);
  nonparam_peak_.assign(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const Layer* l = route[i];
    uint64_t persist = 0;
    for (const tensor::Tensor* p : l->params()) persist += p->bytes();
    for (const tensor::Tensor* g : l->param_grads()) persist += g->bytes();
    persist_prefix_[i + 1] = persist_prefix_[i] + persist;
    // l_i counts everything the layer's kernels need resident; its own
    // params/grads are already covered by the stage's persistent term.
    const uint64_t li = l->layer_tensor_bytes();
    nonparam_peak_[static_cast<size_t>(i)] = li > persist ? li - persist : 0;
  }
  // Sparse table over nonparam_peak_: level k holds window-2^k maxima.
  if (n > 0) {
    peak_table_.push_back(nonparam_peak_);
    for (int k = 1; (1 << k) <= n; ++k) {
      const auto& prev = peak_table_.back();
      const int half = 1 << (k - 1);
      std::vector<uint64_t> cur(static_cast<size_t>(n - (1 << k) + 1));
      for (int i = 0; i + (1 << k) <= n; ++i) {
        cur[static_cast<size_t>(i)] =
            std::max(prev[static_cast<size_t>(i)], prev[static_cast<size_t>(i + half)]);
      }
      peak_table_.push_back(std::move(cur));
    }
  }

  // One O(route * fan-in) scan per position, cached: the partition DP and
  // make_plan consult producers per (i, j) pair and must not rescan.
  producer_.assign(static_cast<size_t>(n) + 1, -1);
  for (int cut = 1; cut < n; ++cut) {
    producer_[static_cast<size_t>(cut)] = scan_boundary_producer(cut);
    if (producer_[static_cast<size_t>(cut)] >= 0) valid_cuts_.push_back(cut);
  }
}

double NetPartitioner::layer_seconds(const Layer* l) const {
  // Same roofline form the Runtime charges; convolutions use their default
  // (im2col-class) efficiency — the balance only needs relative weight, not
  // the per-step dynamic algorithm choice.
  double fwd = cost_.compute_time(l->forward_flops(), static_cast<double>(l->forward_bytes()),
                                  l->compute_efficiency());
  double bwd = cost_.compute_time(l->backward_flops(), static_cast<double>(l->backward_bytes()),
                                  l->compute_efficiency());
  return fwd + bwd;
}

int NetPartitioner::boundary_producer(int cut) const {
  if (cut <= 0 || cut >= static_cast<int>(net_.route().size())) return -1;
  return producer_[static_cast<size_t>(cut)];
}

int NetPartitioner::scan_boundary_producer(int cut) const {
  const auto& route = net_.route();
  const int n = static_cast<int>(route.size());
  int producer = -1;
  for (int j = cut; j < n; ++j) {
    for (const Layer* prev : route[j]->prevs()) {
      int p = pos_[static_cast<size_t>(prev->id())];
      if (p >= cut) continue;       // in-stage edge downstream of the cut
      if (producer < 0) {
        producer = p;
      } else if (producer != p) {
        return -1;                  // two distinct tensors cross: invalid cut
      }
    }
  }
  return producer;
}

uint64_t NetPartitioner::stage_min_bytes(int begin, int end) const {
  uint64_t peak = 0;
  if (end > begin) {
    // O(1) range max: two overlapping power-of-two windows.
    const int k = std::bit_width(static_cast<unsigned>(end - begin)) - 1;
    peak = std::max(peak_table_[static_cast<size_t>(k)][static_cast<size_t>(begin)],
                    peak_table_[static_cast<size_t>(k)][static_cast<size_t>(end - (1 << k))]);
  }
  // The trainers PIN stage-boundary tensors for the whole run (the outgoing
  // activation + its gradient landing site, and the incoming gradient the
  // stage streams upstream): eviction can never reclaim them, so they are a
  // second lower bound on residency. Taken as max — not a sum — with the
  // per-layer peak, because the boundary producer/consumer layers' own l_i
  // already contains these tensors (adding would double-count and could
  // falsely reject a fitting stage).
  const int n = static_cast<int>(net_.route().size());
  uint64_t pinned = 0;
  if (begin > 0) {
    const int prod = boundary_producer(begin);
    if (prod >= 0) pinned += net_.route()[static_cast<size_t>(prod)]->output()->bytes();
  }
  if (end < n) {
    const int prod = boundary_producer(end);
    if (prod >= 0) pinned += 2 * net_.route()[static_cast<size_t>(prod)]->output()->bytes();
  }
  peak = std::max(peak, pinned);
  return persist_prefix_[static_cast<size_t>(end)] - persist_prefix_[static_cast<size_t>(begin)] +
         peak;
}

double NetPartitioner::stage_cost(int begin, int end, bool remat) const {
  double c = prefix_[end] - prefix_[begin];
  if (remat) c += fwd_prefix_[end] - fwd_prefix_[begin];
  const int n = static_cast<int>(net_.route().size());
  if (end < n) {
    int prod = boundary_producer(end);
    if (prod >= 0) {
      uint64_t bytes = net_.route()[prod]->output()->bytes();
      c += link_.latency_s + static_cast<double>(bytes) / link_.bandwidth;
    }
  }
  return c;
}

PartitionPlan NetPartitioner::make_plan(const std::vector<int>& cuts) const {
  const auto& route = net_.route();
  const int n = static_cast<int>(route.size());
  std::unordered_set<int> valid(valid_cuts_.begin(), valid_cuts_.end());

  PartitionPlan plan;
  plan.cuts = cuts;
  int begin = 0;
  for (size_t s = 0; s <= cuts.size(); ++s) {
    const int end = s < cuts.size() ? cuts[s] : n;
    if (end <= begin || end > n) {
      throw std::invalid_argument("NetPartitioner: cuts must be ascending route positions");
    }
    if (s < cuts.size() && !valid.count(end)) {
      throw std::invalid_argument("NetPartitioner: cut " + std::to_string(end) +
                                  " splits more than one crossing tensor");
    }
    StageSpec spec;
    spec.begin = begin;
    spec.end = end;
    spec.compute_seconds = prefix_[end] - prefix_[begin];
    spec.min_bytes = stage_min_bytes(begin, end);
    if (!stage_fits(begin, end)) {
      throw std::invalid_argument(
          "NetPartitioner: stage [" + std::to_string(begin) + ", " + std::to_string(end) +
          ") needs " + std::to_string(spec.min_bytes) +
          " bytes even with full offload; device pool holds " +
          std::to_string(device_capacity_));
    }
    if (end < n) {
      spec.boundary_layer = boundary_producer(end);
      // Chained stages hand activations neighbor to neighbor: the tensor
      // crossing cut s must be produced inside stage s, not skip a stage.
      if (spec.boundary_layer < begin) {
        throw std::invalid_argument(
            "NetPartitioner: boundary producer of cut " + std::to_string(end) +
            " lies before the stage (stage-skipping edge)");
      }
      spec.boundary_bytes = route[spec.boundary_layer]->output()->bytes();
    }
    plan.max_stage_seconds = std::max(plan.max_stage_seconds, stage_cost(begin, end));
    plan.stages.push_back(spec);
    begin = end;
  }
  return plan;
}

PartitionPlan NetPartitioner::partition_at(const std::vector<int>& cuts) const {
  return make_plan(cuts);
}

PartitionPlan NetPartitioner::partition(int stages, int microbatches) const {
  const int n = static_cast<int>(net_.route().size());
  if (stages < 1) throw std::invalid_argument("NetPartitioner: stages >= 1");
  if (stages == 1) return make_plan({});
  const int c = static_cast<int>(valid_cuts_.size());
  if (c < stages - 1) {
    throw std::invalid_argument("NetPartitioner: net has " + std::to_string(c) +
                                " valid cuts, cannot make " + std::to_string(stages) +
                                " stages");
  }

  // Min-max DP over the valid-cut lattice: f[s][j] = best achievable slowest
  // stage over the route prefix ending at cut j using s stages. Positions:
  // 0 (start), valid_cuts_[0..c), n (end).
  auto cut_at = [&](int j) { return j < c ? valid_cuts_[static_cast<size_t>(j)] : n; };
  const double inf = std::numeric_limits<double>::infinity();
  // f[j] for the current stage count; choice[s][j] = predecessor index.
  // Memory awareness: a segment that cannot fit its pool even at the
  // full-offload floor costs infinity, so the DP routes around it.
  // With M > 1 every stage but the final one is charged its forward a second
  // time (1F1B: stages above the last re-materialize before each backward,
  // the last never does). Stages >= 2 here, so the first-stage seeds below
  // are never the last stage.
  const bool remat_mid = microbatches > 1;
  auto seg_cost = [&](int begin, int end, bool last) {
    return stage_fits(begin, end) ? stage_cost(begin, end, remat_mid && !last) : inf;
  };
  std::vector<std::vector<int>> choice(static_cast<size_t>(stages),
                                       std::vector<int>(static_cast<size_t>(c) + 1, -1));
  std::vector<double> f(static_cast<size_t>(c) + 1, inf);
  for (int j = 0; j <= c; ++j) f[j] = seg_cost(0, cut_at(j), /*last=*/false);
  for (int s = 1; s < stages; ++s) {
    std::vector<double> g(static_cast<size_t>(c) + 1, inf);
    for (int j = s; j <= c; ++j) {
      // Only j == c may be the route end; earlier stages end at real cuts.
      if (s == stages - 1 && j != c) continue;
      if (s < stages - 1 && j == c) continue;
      for (int i = s - 1; i < j; ++i) {
        if (i == c) continue;
        if (f[i] == inf) continue;
        double v = std::max(f[i], seg_cost(cut_at(i), cut_at(j), s == stages - 1));
        if (v < g[j]) {
          g[j] = v;
          choice[s][j] = i;
        }
      }
    }
    f = std::move(g);
  }
  if (f[static_cast<size_t>(c)] == inf) {
    throw std::invalid_argument("NetPartitioner: no " + std::to_string(stages) +
                                "-stage partition fits the device pool of " +
                                std::to_string(device_capacity_) +
                                " bytes even with full offload");
  }

  std::vector<int> cuts;
  int j = c;
  for (int s = stages - 1; s >= 1; --s) {
    j = choice[static_cast<size_t>(s)][static_cast<size_t>(j)];
    if (j < 0) throw std::logic_error("NetPartitioner: partition DP found no path");
    cuts.push_back(cut_at(j));
  }
  std::reverse(cuts.begin(), cuts.end());
  return make_plan(cuts);
}

// ---------------------------------------------------------------------------
// extract_stage

namespace {

std::unique_ptr<Layer> clone_layer(const Layer* l) {
  const std::string& name = l->name();
  switch (l->type()) {
    case LayerType::kData:
      return std::make_unique<DataLayer>(name, l->out_shape());
    case LayerType::kConv: {
      const auto& d = static_cast<const ConvLayer*>(l)->desc();
      return std::make_unique<ConvLayer>(name, d.k, d.kh, d.kw, d.stride_h, d.pad_h, d.pad_w,
                                         d.has_bias);
    }
    case LayerType::kPool: {
      const auto& d = static_cast<const PoolLayer*>(l)->desc();
      return std::make_unique<PoolLayer>(name, d.kh, d.kw, d.stride_h, d.pad_h, d.max_pool);
    }
    case LayerType::kAct:
      return std::make_unique<ActLayer>(name, static_cast<const ActLayer*>(l)->kind());
    case LayerType::kLrn: {
      const auto* lrn = static_cast<const LrnLayer*>(l);
      return std::make_unique<LrnLayer>(name, lrn->size(), lrn->alpha(), lrn->beta(), lrn->k());
    }
    case LayerType::kBn:
      return std::make_unique<BnLayer>(name, static_cast<const BnLayer*>(l)->eps());
    case LayerType::kFc: {
      const auto* fc = static_cast<const FcLayer*>(l);
      return std::make_unique<FcLayer>(name, fc->out_features(), fc->has_bias());
    }
    case LayerType::kDropout:
      return std::make_unique<DropoutLayer>(name, static_cast<const DropoutLayer*>(l)->ratio());
    case LayerType::kSoftmax:
      return std::make_unique<SoftmaxLossLayer>(name);
    case LayerType::kEltwise:
      return std::make_unique<EltwiseLayer>(name);
    case LayerType::kConcat:
      return std::make_unique<ConcatLayer>(name);
  }
  throw std::logic_error("clone_layer: unknown layer type");
}

}  // namespace

std::unique_ptr<Net> extract_stage(const Net& src, const PartitionPlan& plan, int stage) {
  if (stage < 0 || stage >= static_cast<int>(plan.stages.size())) {
    throw std::invalid_argument("extract_stage: stage out of range");
  }
  const StageSpec& spec = plan.stages[static_cast<size_t>(stage)];
  const auto& route = src.route();

  auto net = std::make_unique<Net>();
  net->set_arch(src.arch());

  // The upstream boundary producer this stage replaces with a synthetic,
  // gradient-carrying input (null for stage 0 — it keeps the real DataLayer).
  const Layer* in_producer =
      stage > 0 ? route[static_cast<size_t>(plan.stages[static_cast<size_t>(stage) - 1].boundary_layer)]
                : nullptr;

  std::vector<Layer*> mapped(src.num_layers(), nullptr);
  Layer* stage_in = nullptr;
  if (in_producer) {
    auto data = std::make_unique<DataLayer>("STAGE_IN", in_producer->out_shape());
    data->set_input_grad(true);
    stage_in = net->add(std::move(data), {});
  }

  for (int i = spec.begin; i < spec.end; ++i) {
    const Layer* l = route[static_cast<size_t>(i)];
    std::vector<Layer*> inputs;
    for (const Layer* prev : l->prevs()) {
      if (Layer* m = mapped[static_cast<size_t>(prev->id())]) {
        inputs.push_back(m);
      } else if (prev == in_producer) {
        inputs.push_back(stage_in);
      } else {
        throw std::invalid_argument("extract_stage: layer " + l->name() +
                                    " consumes a tensor from a non-adjacent stage");
      }
    }
    mapped[static_cast<size_t>(l->id())] = net->add(clone_layer(l), inputs);
  }

  // The outgoing boundary tensor needs a gradient for the backstream. Every
  // layer type carries one except DataLayer — which IS the boundary when the
  // stage is cut directly behind the net's input.
  if (spec.boundary_layer >= 0) {
    Layer* prod = mapped[static_cast<size_t>(route[static_cast<size_t>(spec.boundary_layer)]->id())];
    if (prod && prod->type() == LayerType::kData) {
      static_cast<DataLayer*>(prod)->set_input_grad(true);
    }
  }

  net->finalize();
  return net;
}

}  // namespace sn::graph
