#include "core/runtime.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "util/logging.hpp"

namespace sn::core {

Runtime::Runtime(graph::Net& net, RuntimeOptions opts)
    : net_(net),
      opts_(opts),
      owned_machine_(opts.cluster ? nullptr : std::make_unique<sim::Machine>(opts.spec)),
      machine_(opts.cluster ? opts.cluster->machine(opts.device_id) : *owned_machine_),
      cost_(opts.spec),
      liveness_(net, opts.recompute != RecomputeMode::kNone),
      plan_(net, opts.recompute),
      memory_plan_(net, liveness_, plan_, opts) {
  if (!net.finalized()) throw std::logic_error("Runtime: net must be finalized");

  UnifiedTensorPool::Config pool_cfg;
  pool_cfg.real = opts_.real;
  pool_cfg.use_pool_allocator = opts_.use_pool_allocator;
  pool_cfg.tensor_cache = opts_.tensor_cache;
  pool_cfg.async_transfers = opts_.async_transfers;
  pool_cfg.pinned_host = opts_.pinned_host;
  pool_cfg.device_capacity = opts_.device_capacity;
  pool_cfg.host_capacity = opts_.host_capacity;
  pool_cfg.device_id = opts_.device_id;
  UnifiedTensorPool::Hooks hooks;
  hooks.droppable = [this](const tensor::Tensor* t) { return plan_.droppable(t); };
  hooks.persistent = [this](uint64_t uid) { return liveness_.is_persistent(uid); };
  hooks.last_forward_use = [this](uint64_t uid) { return memory_plan_.last_forward_use(uid); };
  pool_ = std::make_unique<UnifiedTensorPool>(net.registry(), machine_, pool_cfg,
                                              std::move(hooks));

  producer_.assign(net.registry().size(), nullptr);
  for (const auto& l : net.layers()) {
    for (tensor::Tensor* t : l->forward_defs()) producer_[t->uid()] = l.get();
    for (tensor::Tensor* t : l->param_grads()) producer_[t->uid()] = l.get();
    if (tensor::Tensor* g = l->output_grad()) producer_[g->uid()] = l.get();
  }
}

// --------------------------------------------------------------------------
// materialization (policy over the pool's state machine)

void Runtime::materialize(tensor::Tensor* t) {
  // The pool lands an in-flight stage-in, counts a cache hit or fetches an
  // off-device copy back, wherever it lives. What it cannot fetch, only
  // recomputation restores.
  if (pool_->fetch(t)) return;
  if (t->residency == tensor::Residency::kDropped) {
    graph::Layer* prod = producer_of(t);
    int seg = plan_.segment_of(prod);
    if (!in_replay_ && seg >= 0 && plan_.segments()[seg].speed_centric) {
      // Speed-centric: replay the whole segment once; later backward steps
      // in the segment reuse the regenerated tensors (Fig. 9a). Under severe
      // memory pressure a later replay may evict an earlier regeneration,
      // so a targeted chain replay below backstops the specific tensor.
      in_replay_ = true;
      for (graph::Layer* l : plan_.segments()[seg].layers) replay_forward(l);
      in_replay_ = false;
      if (t->on_device()) return;
    }
    // Memory-centric (and nested-replay) path: replay only the ancestor
    // chain of this tensor; post_step() re-drops what was regenerated
    // (Fig. 9b). The chain holds locks top-down, so the target cannot be
    // evicted before it is returned to the caller.
    bool saved = in_replay_;
    in_replay_ = true;
    replay_forward(prod);
    in_replay_ = saved;
    if (!t->on_device()) {
      throw std::logic_error("recompute failed to materialize " + t->name());
    }
    return;
  }
  throw std::logic_error("use of never-defined tensor " + t->name());
}

void Runtime::replay_forward(graph::Layer* layer) {
  // Skip when everything this layer defines is already live.
  bool live = layer->output()->on_device();
  for (const tensor::Tensor* a : layer->aux()) live = live && a->on_device();
  if (live) return;

  auto uses = layer->forward_uses();
  auto defs = layer->forward_defs();
  // Lock as we go: materializing a later dependency may trigger eviction,
  // which must not reclaim dependencies staged moments earlier.
  for (tensor::Tensor* u : uses) {
    materialize(u);
    u->lock();
  }
  for (tensor::Tensor* d : defs) {
    ensure_def(d);
    d->lock();
  }

  StepTelemetry scratch;
  run_layer_pass(layer, /*forward=*/true, nullptr, nullptr, nullptr, &scratch);
  ++extra_forwards_;
  for (const tensor::Tensor* d : defs) regenerated_.push_back(d->uid());

  lock(uses, false);
  lock(defs, false);
}

void Runtime::ensure_def(tensor::Tensor* t) {
  // A definition target may have a stage-in in flight (a partially
  // accumulated gradient staged back for this step): the kernel must not
  // write the buffer while the DMA engine is still filling it.
  pool_->land(t);
  // Definitions can be read-modify-write (gradient accumulation across
  // fan-out consumers): an evicted partial result must round-trip back, not
  // be re-allocated blank. Falls through to the first-def zeroing check
  // below, which is a no-op within the same iteration.
  if (!t->on_device() && !pool_->fetch(t)) {
    // Aliased definitions consume no new device memory (simulation-only
    // accounting of framework-specific reuse): Torch-style in-place
    // activations, and Caffe/Torch reuse of forward tensors as backward
    // data buffers (§2.2).
    graph::Layer* prod = producer_of(t);
    bool alias_act = opts_.inplace_act && prod && prod->type() == graph::LayerType::kAct &&
                     t->kind() == tensor::TensorKind::kData;
    bool alias_grad = opts_.reuse_grad_buffers && t->kind() == tensor::TensorKind::kGrad;
    if (!opts_.real && (alias_act || alias_grad)) {
      pool_->adopt_alias(t);
      return;
    }
    pool_->alloc_device(t);
  }
  // The kernel writes this def: a host copy fetched (or prefetched) back —
  // e.g. a partially accumulated gradient — is stale from here on, and
  // eviction must re-offload rather than resurrect it.
  pool_->mark_dirty(t);
  if (t->kind() == tensor::TensorKind::kGrad && !zeroed_grads_.count(t->uid())) {
    zeroed_grads_.insert(t->uid());
    if (opts_.real) {
      if (float* p = device_ptr(t)) std::memset(p, 0, t->bytes());
    }
    machine_.run_compute(cost_.bandwidth_time(t->bytes()));
  }
}

// --------------------------------------------------------------------------
// step execution

void Runtime::charge_layer_time(const graph::Layer* layer, bool forward, nn::ConvAlgo algo) {
  double flops, eff;
  uint64_t bytes;
  if (layer->type() == graph::LayerType::kConv) {
    const auto* conv = static_cast<const graph::ConvLayer*>(layer);
    nn::ConvPass pass = forward ? nn::ConvPass::kForward : nn::ConvPass::kBackwardData;
    flops = nn::conv_flops(conv->desc(), pass) * (forward ? 1.0 : 2.0);  // data + filter
    eff = nn::conv_algo_efficiency(conv->desc(), algo, pass);
    bytes = forward ? layer->forward_bytes() : layer->backward_bytes();
  } else {
    flops = forward ? layer->forward_flops() : layer->backward_flops();
    eff = layer->compute_efficiency();
    bytes = forward ? layer->forward_bytes() : layer->backward_bytes();
  }
  machine_.run_compute(cost_.compute_time(flops, static_cast<double>(bytes), eff));
}

void Runtime::run_layer_pass(graph::Layer* layer, bool forward, const float* input,
                             const int32_t* labels, double* loss_out, StepTelemetry* tele) {
  graph::ExecContext ctx;
  ctx.real = opts_.real;
  ctx.buf = [this](const tensor::Tensor* t) { return device_ptr(t); };
  ctx.iter = iter_;
  ctx.seed = opts_.seed;
  ctx.input_data = input;
  ctx.labels = labels;
  ctx.loss_out = loss_out;
  ctx.loss_sum_out = &loss_sum_;
  ctx.loss_batch = opts_.loss_batch;

  // Dynamic convolution-workspace allocation (§3.5): measure what is free
  // *now*, after the memory techniques have run for this step.
  mem::GpuAllocator& allocator = pool_->allocator();
  std::optional<uint64_t> ws_handle;
  if (layer->type() == graph::LayerType::kConv) {
    auto* conv = static_cast<graph::ConvLayer*>(layer);
    uint64_t budget = opts_.allow_workspace ? allocator.largest_free() : 0;
    AlgoChoice choice = opts_.dynamic_workspace
                            ? choose_conv_algo(*conv, forward, budget)
                            : choose_conv_algo_static(*conv, forward, budget);
    if (choice.workspace_bytes > 0) {
      ws_handle = allocator.allocate(choice.workspace_bytes);
      if (!ws_handle) {
        // Fragmentation race: fall back to the workspace-free algorithm.
        choice.algo = nn::ConvAlgo::kDirect;
        choice.workspace_bytes = 0;
      }
    }
    ctx.conv_algo = choice.algo;
    ctx.workspace_bytes = choice.workspace_bytes;
    if (ws_handle) ctx.workspace = static_cast<float*>(allocator.ptr(*ws_handle));
    tele->algo = choice.algo;
    tele->ws_assigned = choice.workspace_bytes;
    tele->ws_max_speed = choice.best_workspace_bytes;
  }

  if (forward) {
    layer->forward(ctx);
  } else {
    layer->backward(ctx);
  }
  charge_layer_time(layer, forward, ctx.conv_algo);

  if (ws_handle) allocator.deallocate(*ws_handle);
}

void Runtime::lock(const std::vector<tensor::Tensor*>& ts, bool locked) {
  for (tensor::Tensor* t : ts) {
    if (locked) {
      t->lock();
    } else {
      t->unlock();
    }
  }
}

void Runtime::exec_step(const graph::Step& step, const float* input, const int32_t* labels,
                        double* loss_out) {
  graph::Layer* layer = step.layer;
  const bool fwd = step.forward;
  regenerated_.clear();

  // Label the machine-level spans this step will emit (compute, allocs and
  // any transfer stalls materialize/prefetch trigger) before they happen.
  if (auto* rec = machine_.trace()) {
    rec->set_op_context(layer->name() + (fwd ? ":f" : ":b"),
                        obs::schedule_phase_name(sched_phase_), sched_microbatch_);
  }

  auto uses = fwd ? layer->forward_uses() : layer->backward_uses();
  auto defs = fwd ? layer->forward_defs() : layer->backward_defs();

  // Materialize-and-lock one at a time: materializing a later dependency may
  // trigger eviction, which must not touch dependencies already staged.
  for (tensor::Tensor* u : uses) {
    materialize(u);
    u->lock();
  }
  for (tensor::Tensor* d : defs) {
    ensure_def(d);
    d->lock();
  }

  StepTelemetry tele;
  tele.step = step.index;
  tele.layer = layer;
  tele.forward = fwd;
  tele.device_id = opts_.device_id;
  tele.stage = opts_.stage;
  tele.replica = opts_.replica;
  tele.sched_phase = sched_phase_;
  tele.microbatch = sched_microbatch_;

  run_layer_pass(layer, fwd, fwd && layer->type() == graph::LayerType::kData ? input : nullptr,
                 labels, loss_out, &tele);

  tele.mem_in_use = pool_->allocator().in_use();
  tele.live_tensors = pool_->live_count();
  tele.clock = machine_.now();
  tele.host_in_use = pool_->host_pool().in_use();
  tele.host_peak = pool_->host_pool().peak_in_use();
  const TransferStats xfer = pool_->engine().stats();
  tele.d2h_submitted = xfer.submitted_d2h;
  tele.h2d_submitted = xfer.submitted_h2d;
  tele.d2h_completed = xfer.completed_d2h;
  tele.h2d_completed = xfer.completed_h2d;
  tele.dma_copies = xfer.dma_copies;
  tele.transfers_in_flight = pool_->engine().pending_count(TransferDir::kD2H) +
                             pool_->engine().pending_count(TransferDir::kH2D);
  tele.d2h_busy_seconds = machine_.counters().seconds_d2h;
  tele.h2d_busy_seconds = machine_.counters().seconds_h2d;
  tele.p2p_busy_seconds = machine_.counters().seconds_p2p;
  tele.compute_seconds = machine_.counters().compute_time;
  telemetry_.push_back(tele);

  lock(uses, false);
  lock(defs, false);
}

void Runtime::post_step(const graph::Step& step) {
  // Memory-centric re-drop: tensors regenerated for THIS backward step are
  // dropped again when the plan says a later step reads them (Fig. 9b).
  for (uint64_t uid : regenerated_) {
    tensor::Tensor* t = tensor_by_uid(uid);
    if (memory_plan_.redrop(uid, step.index) && t->on_device() && !t->locked()) {
      pool_->drop_tensor(t);
    }
  }

  for (const MemoryPlan::Release& r : memory_plan_.releases(step.index)) {
    tensor::Tensor* t = r.tensor;
    switch (r.kind) {
      case MemoryPlan::Action::kFree:
        if (!t->locked()) pool_->free_tensor(t);
        break;
      case MemoryPlan::Action::kDrop:
        if (t->on_device() && !t->locked()) pool_->drop_tensor(t);
        break;
      case MemoryPlan::Action::kOffload:
        if (t->on_device() && !pool_->offload_pending(t->uid())) {
          pool_->offload_to_host(t, /*async=*/true);
        }
        break;
    }
  }
  pool_->poll_offloads(step.index);

  // Stage back every off-device dependency that fits without eviction; the
  // first that does not fit ends staging for this step.
  for (tensor::Tensor* u : memory_plan_.prefetches(step.index)) {
    if (external_pending_.count(u->uid())) continue;  // bytes still on a peer
    if (!pool_->fetch_ahead(u)) break;
  }
}

// --------------------------------------------------------------------------
// lifecycle

void Runtime::initialize() {
  assert(!initialized_);
  for (const auto& l : net_.layers()) {
    auto init_param = [&](tensor::Tensor* t, bool weight) {
      pool_->alloc_device(t);
      t->lock();  // parameters are never eviction candidates
      if (!opts_.real) return;
      float* p = device_ptr(t);
      if (!p) return;
      int64_t n = t->shape().elems();
      if (!weight) {
        // Biases and BN beta start at zero; BN gamma at one.
        bool is_gamma = t->name().find(":gamma") != std::string::npos;
        for (int64_t i = 0; i < n; ++i) p[i] = is_gamma ? 1.0f : 0.0f;
        return;
      }
      // He-normal fan-in initialization for conv / FC weights, seeded per
      // tensor (FNV-1a of the name mixed with the run seed) rather than from
      // one sequential stream: a pipeline stage holding layers j..k must
      // draw exactly the bits the full net would for those layers, which a
      // positional stream cannot survive.
      uint64_t h = 1469598103934665603ull;
      for (char c : t->name()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      util::Rng trng(opts_.seed * 0x9E3779B97F4A7C15ull + h);
      int64_t fan_in = t->shape().c * t->shape().h * t->shape().w;
      float stddev = std::sqrt(2.0f / static_cast<float>(fan_in > 0 ? fan_in : 1));
      for (int64_t i = 0; i < n; ++i) p[i] = trng.normal(0.0f, stddev);
    };
    const auto& params = l->params();
    for (size_t i = 0; i < params.size(); ++i) {
      bool weight = params[i]->name().find(":W") != std::string::npos;
      init_param(params[i], weight);
    }
    for (tensor::Tensor* g : l->param_grads()) {
      pool_->alloc_device(g);
      g->lock();
      if (opts_.real) {
        if (float* p = device_ptr(g)) std::memset(p, 0, g->bytes());
      }
    }
  }
  initialized_ = true;
}

void Runtime::begin_iteration() {
  if (!initialized_) initialize();
  telemetry_.clear();
  zeroed_grads_.clear();
  extra_forwards_ = 0;
  loss_sum_ = 0.0;
  iter_loss_ = 0.0;
  pool_->reset_iteration_counters();
}

Runtime::StatSpan Runtime::begin_span() const {
  StatSpan s;
  s.c0 = machine_.counters();
  s.t0 = machine_.now();
  const TensorCache& cache = pool_->cache();
  s.hits0 = cache.hits();
  s.misses0 = cache.misses();
  s.dma0 = pool_->engine().stats().dma_copies;
  s.evict0 = pool_->evictions();
  s.alloc0 = pool_->alloc_count();
  s.extra0 = extra_forwards_;
  s.pstage0 = pool_->peer_stage_count();
  s.pstageb0 = pool_->peer_stage_bytes();
  s.pfetch0 = pool_->peer_fetch_count();
  s.pspill0 = pool_->peer_spill_count();
  return s;
}

IterationStats Runtime::end_span(const StatSpan& s) {
  const auto c1 = machine_.counters();
  const TensorCache& cache = pool_->cache();
  IterationStats st;
  st.loss = iter_loss_;
  st.loss_sum = loss_sum_;
  st.seconds = machine_.now() - s.t0;
  st.peak_mem = pool_->allocator().peak_in_use();
  st.bytes_d2h = c1.bytes_d2h - s.c0.bytes_d2h;
  st.bytes_h2d = c1.bytes_h2d - s.c0.bytes_h2d;
  st.extra_forwards = extra_forwards_ - s.extra0;
  st.evictions = pool_->evictions() - s.evict0;
  st.cache_hits = cache.hits() - s.hits0;
  st.cache_misses = cache.misses() - s.misses0;
  st.allocs = pool_->alloc_count() - s.alloc0;
  st.malloc_seconds = c1.malloc_time - s.c0.malloc_time;
  st.stall_seconds = c1.stall_time - s.c0.stall_time;
  st.host_peak = pool_->host_pool().peak_in_use();
  st.dma_copies = pool_->engine().stats().dma_copies - s.dma0;
  st.d2h_seconds = c1.seconds_d2h - s.c0.seconds_d2h;
  st.h2d_seconds = c1.seconds_h2d - s.c0.seconds_h2d;
  st.p2p_seconds = c1.seconds_p2p - s.c0.seconds_p2p;
  st.peer_stage_count = pool_->peer_stage_count() - s.pstage0;
  st.peer_stage_bytes = pool_->peer_stage_bytes() - s.pstageb0;
  st.peer_fetch_count = pool_->peer_fetch_count() - s.pfetch0;
  st.peer_spill_count = pool_->peer_spill_count() - s.pspill0;
  return st;
}

void Runtime::run_steps(size_t first, size_t last, const float* input, const int32_t* labels) {
  const auto& steps = net_.steps();
  for (size_t i = first; i < last; ++i) {
    exec_step(steps[i], input, labels, &iter_loss_);
    post_step(steps[i]);
  }
}

IterationStats Runtime::train_iteration(const float* input, const int32_t* labels) {
  begin_iteration();
  const StatSpan span = begin_span();
  run_steps(0, net_.steps().size(), input, labels);

  // Drain outstanding DMA so the next iteration starts clean.
  pool_->drain();

  IterationStats st = end_span(span);
  advance_iteration();
  return st;
}

IterationStats Runtime::forward_pass(const float* input, const int32_t* labels) {
  begin_iteration();
  const StatSpan span = begin_span();
  run_steps(0, net_.route().size(), input, labels);
  return end_span(span);
}

IterationStats Runtime::backward_pass(const int32_t* labels) {
  const StatSpan span = begin_span();
  // Each microbatch's gradients start from zero; the caller combines the
  // per-microbatch results pairwise (util/pairwise.hpp) so M microbatches
  // reproduce the full-batch reduction tree bit for bit.
  zeroed_grads_.clear();
  run_steps(net_.route().size(), net_.steps().size(), nullptr, labels);
  pool_->drain();
  return end_span(span);
}

void Runtime::pin_external(tensor::Tensor* t) {
  if (!t->on_device()) pool_->alloc_device(t);
  t->lock();
}

void Runtime::mark_external_pending(const tensor::Tensor* t) {
  external_pending_.insert(t->uid());
}

void Runtime::mark_external_landed(const tensor::Tensor* t) {
  external_pending_.erase(t->uid());
}

void Runtime::apply_sgd(float lr, float momentum, float weight_decay) {
  if (auto* rec = machine_.trace()) {
    rec->set_op_context("sgd", obs::schedule_phase_name(sched_phase_), -1);
  }
  for (const auto& l : net_.layers()) {
    const auto& params = l->params();
    const auto& grads = l->param_grads();
    for (size_t i = 0; i < params.size() && i < grads.size(); ++i) {
      tensor::Tensor* w = params[i];
      tensor::Tensor* g = grads[i];
      machine_.run_compute(cost_.bandwidth_time(3 * w->bytes()));
      if (!opts_.real) continue;
      float* wp = device_ptr(w);
      float* gp = device_ptr(g);
      if (!wp || !gp) continue;
      auto& v = momentum_[w];
      if (v.empty()) v.assign(static_cast<size_t>(w->shape().elems()), 0.0f);
      for (size_t k = 0; k < v.size(); ++k) {
        float grad = gp[k] + weight_decay * wp[k];
        v[k] = momentum * v[k] - lr * grad;
        wp[k] += v[k];
      }
    }
  }
}

std::vector<float> Runtime::read_tensor(const tensor::Tensor* t) {
  std::vector<float> out(static_cast<size_t>(t->shape().elems()), 0.0f);
  if (const float* p = device_ptr(t)) std::memcpy(out.data(), p, t->bytes());
  return out;
}

}  // namespace sn::core
