#include "core/memory_plan.hpp"

#include <algorithm>

namespace sn::core {

namespace {

/// UTP offloads checkpoint-layer outputs; the paper restricts offloading to
/// CONV layers (§3.3.1) since FC/Dropout/Softmax hold <1% of memory. DATA
/// behaves like a CONV output for this purpose (large, forward-produced,
/// backward-consumed).
bool is_offload_producer(const graph::Layer* l) {
  return l->type() == graph::LayerType::kConv || l->type() == graph::LayerType::kData;
}

}  // namespace

MemoryPlan::MemoryPlan(const graph::Net& net, const Liveness& liveness,
                       const RecomputePlan& recompute, const RuntimeOptions& opts)
    : nfwd_(static_cast<int>(net.route().size())),
      lookahead_(opts.prefetch_lookahead == kPrefetchLookaheadAuto
                     ? default_prefetch_lookahead(net)
                     : std::max(0, opts.prefetch_lookahead)) {
  const auto& tensors = net.registry().all();
  const auto& steps = net.steps();
  last_forward_use_.assign(tensors.size(), -1);
  redrop_until_.assign(tensors.size(), -1);
  releases_.resize(steps.size());
  prefetches_.resize(steps.size());

  for (int s = 0; s < nfwd_; ++s) {
    const graph::Layer* l = steps[s].layer;
    for (const tensor::Tensor* t : l->forward_uses()) last_forward_use_[t->uid()] = s;
    for (const tensor::Tensor* t : l->forward_defs()) {
      last_forward_use_[t->uid()] = std::max(last_forward_use_[t->uid()], s);
    }
  }
  for (const Segment& seg : recompute.segments()) {
    if (seg.speed_centric) continue;
    for (const graph::Layer* l : seg.layers) {
      for (const tensor::Tensor* t : l->forward_defs()) {
        redrop_until_[t->uid()] = liveness.last_occurrence(t->uid());
      }
    }
  }

  if (opts.use_liveness) {
    for (size_t s = 0; s < steps.size(); ++s) {
      for (uint64_t uid : liveness.free_after(static_cast<int>(s))) {
        releases_[s].push_back({Action::kFree, tensors[uid].get()});
      }
    }
  }
  if (recompute.mode() != RecomputeMode::kNone) {
    for (const auto& t : tensors) {
      const int lf = last_forward_use_[t->uid()];
      if (lf >= 0 && recompute.droppable(t.get()) && liveness.last_occurrence(t->uid()) > lf) {
        releases_[lf].push_back({Action::kDrop, t.get()});
      }
    }
  }
  if (opts.offload && !opts.tensor_cache) {
    for (int s = 0; s < nfwd_; ++s) {
      tensor::Tensor* out = steps[s].layer->output();
      if (is_offload_producer(steps[s].layer) && liveness.last_occurrence(out->uid()) >= nfwd_) {
        releases_[s].push_back({Action::kOffload, out});
      }
    }
  }

  if (!opts.offload || !opts.async_transfers || lookahead_ == 0) return;
  // At each checkpoint backward step: the deduplicated backward reads of the
  // steps after it, through `lookahead_` checkpoint layers. `seen[uid] == s`
  // marks a tensor already listed for step s.
  std::vector<int> seen(tensors.size(), -1);
  for (int s = nfwd_; s < static_cast<int>(steps.size()); ++s) {
    if (!RecomputePlan::is_checkpoint_layer(steps[s].layer)) continue;
    int span = 0;
    for (size_t n = static_cast<size_t>(s) + 1; n < steps.size() && span < lookahead_; ++n) {
      for (tensor::Tensor* u : steps[n].layer->backward_uses()) {
        if (seen[u->uid()] == s) continue;
        seen[u->uid()] = s;
        prefetches_[s].push_back(u);
      }
      if (RecomputePlan::is_checkpoint_layer(steps[n].layer)) ++span;
    }
  }
}

int default_prefetch_lookahead(const graph::Net& net) {
  const std::string& a = net.arch();
  if (a == "alexnet" || a == "vgg16" || a == "vgg19") return 1;
  if (a == "inception_v4" || a == "densenet121") return 2;
  if (a.rfind("resnet", 0) == 0) return 2;
  return 1;  // the paper's policy for anything the bench has not ranked
}

}  // namespace sn::core
