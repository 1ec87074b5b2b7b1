#include "core/tensor_pool.hpp"

#include <algorithm>
#include <cassert>

#include "core/options.hpp"
#include "core/peer_staging.hpp"
#include "obs/trace.hpp"

namespace sn::core {

UnifiedTensorPool::UnifiedTensorPool(tensor::TensorRegistry& registry, sim::Machine& machine,
                                     Config cfg, Hooks hooks)
    : registry_(registry),
      machine_(machine),
      cfg_(cfg),
      hooks_(std::move(hooks)),
      allocator_(machine, cfg.device_capacity, /*native=*/!cfg.use_pool_allocator, cfg.real),
      host_pool_(cfg.host_capacity, cfg.pinned_host, cfg.real) {
  engine_ = make_transfer_engine(machine, host_pool_.pinned(), cfg_.real, cfg_.async_transfers,
                                 cfg_.device_id);
}

UnifiedTensorPool::~UnifiedTensorPool() {
  if (group_) group_->detach(this);
}

float* UnifiedTensorPool::device_ptr(const tensor::Tensor* t) {
  if (!cfg_.real) return nullptr;
  if (!t->gpu_handle) return nullptr;
  return static_cast<float*>(allocator_.ptr(*t->gpu_handle));
}

void UnifiedTensorPool::alloc_device(tensor::Tensor* t) {
  allocate(t);
  t->residency = tensor::Residency::kDevice;
}

void UnifiedTensorPool::allocate(tensor::Tensor* t) {
  ++alloc_count_;
  auto h = allocator_.allocate(t->bytes());
  // Guests staged here by other members are reclaimed before this pool
  // offloads its own tensors: a spill costs one D2H either way, and the
  // guest was only ever an opportunistic tenant of the free space.
  auto spill_guests = [&] {
    while (!h && group_ && group_->spill_one_guest(*this)) {
      h = allocator_.allocate(t->bytes());
    }
  };
  if (!h && cfg_.tensor_cache) {
    // Alg. 2 LRU.out: evict least-recently-used unlocked tensors one at a
    // time, retrying the allocation after each, until it fits. Pass 1 frees
    // clean entries (host copy already valid); pass 2 offloads/drops.
    for (int pass = 0; pass < 2 && !h; ++pass) {
      if (pass == 1) spill_guests();
      while (!h) {
        auto victim = cache_.find_victim([&](uint64_t uid) {
          tensor::Tensor* c = by_uid(uid);
          if (c->locked() || !c->on_device()) return false;
          if (pass == 0 && c->residency != tensor::Residency::kBoth) return false;
          return true;
        });
        if (!victim) break;
        tensor::Tensor* c = by_uid(*victim);
        if (pass == 0) {
          release_offloaded(c);
        } else {
          evict_one(c);
        }
        ++evictions_;
        last_eviction_alloc_ = alloc_count_;
        h = allocator_.allocate(t->bytes());
      }
    }
  }
  spill_guests();  // no cache / no victims left: hosted guests are still reclaimable
  if (!h) {
    throw OomError{t->bytes(), allocator_.largest_free(),
                   "device OOM allocating " + t->name()};
  }
  t->gpu_handle = *h;
  ++live_count_;
  if (cfg_.tensor_cache && !hooks_.persistent(t->uid())) cache_.insert(t->uid());
}

void UnifiedTensorPool::free_device(tensor::Tensor* t) {
  // Never reclaim device memory under an in-flight copy: discard blocks
  // until the DMA thread has let go of the buffers (and keeps the virtual
  // clock untouched — the result is being thrown away).
  engine_->discard(TransferDir::kD2H, t->uid());
  engine_->discard(TransferDir::kH2D, t->uid());
  if (t->gpu_handle) {
    allocator_.deallocate(*t->gpu_handle);
    t->gpu_handle.reset();
    --live_count_;
  } else if (t->residency == tensor::Residency::kDevice ||
             t->residency == tensor::Residency::kBoth) {
    --live_count_;  // aliased (in-place) tensor: counted live without a handle
  }
  cache_.erase(t->uid());
}

void UnifiedTensorPool::evict_one(tensor::Tensor* t) {
  if (hooks_.droppable(t)) {
    drop_tensor(t);  // recomputation restores it without any transfer
    return;
  }
  // Peer-memory staging: when the D2H stream is backlogged and a peer pool
  // has budget on a faster-arriving link, park the tensor there instead of
  // pushing it over the host uplink.
  if (stage_to_peer(t)) return;
  // Synchronous offload: the memory is reused immediately, so the copy must
  // complete before the allocation proceeds.
  offload_to_host(t, /*async=*/false);
}

void UnifiedTensorPool::offload_to_host(tensor::Tensor* t, bool async) {
  if (t->host_handle == 0) {
    t->host_handle = host_pool_.allocate(t->bytes());
    if (t->host_handle == 0) {
      throw OomError{t->bytes(), host_pool_.free_bytes(), "host pool OOM for " + t->name()};
    }
  }
  // A rare double-offload (eviction racing an eager offload) must not stack
  // two transfers on one tag.
  if (engine_->pending(TransferDir::kD2H, t->uid())) {
    engine_->wait(TransferDir::kD2H, t->uid());
  }
  engine_->submit(TransferDir::kD2H, t->uid(), device_ptr(t), host_pool_.ptr(t->host_handle),
                  t->bytes());
  t->residency = tensor::Residency::kBoth;
  if (!(async && cfg_.async_transfers)) {
    engine_->wait(TransferDir::kD2H, t->uid());
    release_offloaded(t);
  }
}

void UnifiedTensorPool::release_offloaded(tensor::Tensor* t) {
  if (t->locked()) return;  // retried on a later poll
  // The host copy must be complete before the device copy goes away.
  engine_->wait(TransferDir::kD2H, t->uid());
  assert(t->on_host());
  free_device(t);
  t->residency = tensor::Residency::kHost;
}

void UnifiedTensorPool::release(tensor::Tensor* t, tensor::Residency final_residency) {
  if (group_) {
    auto it = peer_fetches_.find(t->uid());
    if (it != peer_fetches_.end()) {
      // An in-flight fetch-back is writing t's device buffer: block until
      // the DMA worker lets go, then throw the result away (the tensor is
      // dying). This precedes free_device, which reclaims that buffer.
      UnifiedTensorPool* peer = group_->member_pool(it->second.peer);
      peer->engine().discard(TransferDir::kP2P, it->second.tag);
      group_->mark_fetch_pending(this, t->uid(), false);
      peer_fetches_.erase(it);
    }
    if (t->residency == tensor::Residency::kPeer) {
      UnifiedTensorPool* peer = group_->member_pool(t->peer_device);
      group_->unregister_guest(this, t->uid());
      peer->release_guest(t->peer_handle);
      t->peer_device = -1;
      t->peer_handle = 0;
    }
  }
  free_device(t);
  if (t->host_handle) {
    host_pool_.deallocate(t->host_handle);
    t->host_handle = 0;
  }
  t->residency = final_residency;
}

void UnifiedTensorPool::submit_host_fetch(tensor::Tensor* t) {
  allocate(t);
  t->residency = tensor::Residency::kBoth;
  engine_->submit(TransferDir::kH2D, t->uid(), host_pool_.ptr(t->host_handle), device_ptr(t),
                  t->bytes());
}

void UnifiedTensorPool::land(tensor::Tensor* t) {
  // A host prefetch leaves the tensor kBoth with its H2D copy in flight; a
  // peer fetch-back leaves it kPeer until land_peer_fetch retires it.
  if (engine_->pending(TransferDir::kH2D, t->uid())) engine_->wait(TransferDir::kH2D, t->uid());
  land_peer_fetch(t);
}

bool UnifiedTensorPool::fetch(tensor::Tensor* t) {
  land(t);
  if (t->on_device()) {
    if (cfg_.tensor_cache && !hooks_.persistent(t->uid())) {
      cache_.touch(t->uid());
      cache_.count_hit();
    }
    return true;
  }
  // On-demand: the same submit fetch_ahead uses (evicting for room), landed
  // at once because the consumer needs the bytes now.
  if (t->on_host()) {
    submit_host_fetch(t);
    engine_->wait(TransferDir::kH2D, t->uid());
  } else if (t->residency == tensor::Residency::kPeer) {
    submit_peer_fetch(t);
    land_peer_fetch(t);
  } else {
    return false;
  }
  if (cfg_.tensor_cache) cache_.count_miss();
  return true;
}

bool UnifiedTensorPool::fetch_ahead(tensor::Tensor* t) {
  // A host stage-in leaves the tensor kBoth and a peer one leaves it
  // registered in peer_fetches_, so neither is submitted twice.
  const bool from_host = t->residency == tensor::Residency::kHost;
  const bool from_peer =
      t->residency == tensor::Residency::kPeer && peer_fetches_.count(t->uid()) == 0;
  if (!from_host && !from_peer) return true;
  if (allocator_.largest_free() < t->bytes()) return false;  // never evict to stage back
  if (from_host) {
    submit_host_fetch(t);
  } else {
    submit_peer_fetch(t);
  }
  return true;
}

void UnifiedTensorPool::mark_dirty(tensor::Tensor* t) {
  // An in-flight offload would capture the buffer mid-write; its result is
  // stale either way, so drop it (blocks only until the DMA thread lets go).
  engine_->discard(TransferDir::kD2H, t->uid());
  if (t->residency == tensor::Residency::kBoth) {
    t->residency = tensor::Residency::kDevice;
  }
}

void UnifiedTensorPool::adopt_alias(tensor::Tensor* t) {
  t->residency = tensor::Residency::kDevice;
  ++live_count_;
}

// ---------------------------------------------------------------------------
// peer-memory staging

bool UnifiedTensorPool::stage_to_peer(tensor::Tensor* t) {
  if (!group_) return false;
  // A racing eager offload owns this tensor's D2H tag; the host path already
  // knows how to finish and reuse it.
  if (engine_->pending(TransferDir::kD2H, t->uid())) return false;
  const uint64_t bytes = t->bytes();
  const int peer_dev = group_->route(*this, bytes);
  if (peer_dev < 0) return false;
  UnifiedTensorPool* peer = group_->member_pool(peer_dev);
  const uint64_t handle = peer->accept_guest(bytes);
  if (handle == 0) return false;  // lost a fragmentation race since route()
  const uint64_t tag = group_->next_tag();
  const uint64_t flow = group_->next_flow(cfg_.device_id);
  sim::Event e = engine_->submit_p2p(tag, device_ptr(t), peer->guest_ptr(handle), bytes,
                                     peer_dev, machine_.now(), flow, "peer_stage");
  // Synchronous, like the eviction offload it replaces: the memory is reused
  // immediately, so compute stalls until the link copy arrives (the stall
  // consumes the staging flow, pairing the spans for the trace audit).
  if (auto* rec = machine_.trace()) {
    rec->set_stall_context(obs::StallSource::kTransfer, "peer_stage", "", -1, flow);
  }
  engine_->wait(TransferDir::kP2P, tag);
  if (auto* rec = machine_.trace()) rec->clear_stall_context();
  free_device(t);
  t->residency = tensor::Residency::kPeer;
  t->peer_device = peer_dev;
  t->peer_handle = handle;
  group_->register_guest(this, peer, t->uid(), handle, bytes, e.done_at);
  ++peer_stage_count_;
  peer_stage_bytes_ += bytes;
  return true;
}

void UnifiedTensorPool::submit_peer_fetch(tensor::Tensor* t) {
  assert(group_ && t->residency == tensor::Residency::kPeer);
  UnifiedTensorPool* peer = group_->member_pool(t->peer_device);
  assert(peer && "staged copy's host left the group");
  const uint64_t handle = t->peer_handle;
  const double staged_at = group_->guest_staged_at(this, t->uid());
  allocate(t);
  // Submitted on the PEER's engine (sender side of the link); this pool's
  // machine gates on the arrival event, so the peer's clock is untouched —
  // same contract as a pipeline receive.
  const uint64_t tag = group_->next_tag();
  const uint64_t flow = group_->next_flow(t->peer_device);
  sim::Event e = peer->engine().submit_p2p(tag, peer->guest_ptr(handle), device_ptr(t),
                                           t->bytes(), cfg_.device_id,
                                           std::max(staged_at, machine_.now()), flow, "peer_fetch");
  // The tensor stays kPeer — not on_device — until the landing is retired,
  // which also keeps the cache's victim scan off its half-filled buffer.
  group_->mark_fetch_pending(this, t->uid(), true);
  peer_fetches_[t->uid()] = PendingPeerFetch{t->peer_device, tag, e, flow};
}

void UnifiedTensorPool::land_peer_fetch(tensor::Tensor* t) {
  auto it = peer_fetches_.find(t->uid());
  if (it == peer_fetches_.end()) return;
  const PendingPeerFetch pf = it->second;
  UnifiedTensorPool* peer = group_->member_pool(pf.peer);
  if (auto* rec = machine_.trace()) {
    rec->set_stall_context(obs::StallSource::kTransfer, "peer_fetch", "", -1, pf.flow);
  }
  machine_.wait_event(pf.event);
  if (auto* rec = machine_.trace()) rec->clear_stall_context();
  peer->engine().retire_landed(TransferDir::kP2P, pf.tag);
  group_->unregister_guest(this, t->uid());
  peer->release_guest(t->peer_handle);
  t->residency = tensor::Residency::kDevice;
  t->peer_device = -1;
  t->peer_handle = 0;
  ++peer_fetch_count_;
  peer_fetches_.erase(it);
}

uint64_t UnifiedTensorPool::accept_guest(uint64_t bytes) {
  auto h = allocator_.allocate(bytes);  // free space only — guests never evict
  return h ? *h : 0;
}

void UnifiedTensorPool::spill_guest_to_owner(UnifiedTensorPool& owner, uint64_t uid,
                                             uint64_t handle, uint64_t tag) {
  tensor::Tensor* t = owner.by_uid(uid);
  assert(t->residency == tensor::Residency::kPeer && t->peer_handle == handle);
  if (t->host_handle == 0) {
    t->host_handle = owner.host_pool_.allocate(t->bytes());
    if (t->host_handle == 0) {
      throw OomError{t->bytes(), owner.host_pool_.free_bytes(),
                     "host pool OOM spilling guest " + t->name()};
    }
  }
  // The spill rides THIS pool's D2H uplink, synchronously — the freed space
  // is needed now — landing in the OWNER's host pool, so the owner's
  // ordinary kHost fetch path takes over from here.
  if (auto* rec = machine_.trace()) {
    rec->set_stall_context(obs::StallSource::kTransfer, "peer_spill", "", -1, 0);
  }
  engine_->submit(TransferDir::kD2H, tag, guest_ptr(handle),
                  owner.host_pool_.ptr(t->host_handle), t->bytes());
  engine_->wait(TransferDir::kD2H, tag);
  if (auto* rec = machine_.trace()) rec->clear_stall_context();
  release_guest(handle);
  t->residency = tensor::Residency::kHost;
  t->peer_device = -1;
  t->peer_handle = 0;
  ++owner.peer_spill_count_;
}

void UnifiedTensorPool::poll_offloads(int step) {
  for (uint64_t uid : engine_->pending_tags(TransferDir::kD2H)) {
    tensor::Tensor* t = by_uid(uid);
    // Release the device copy once the copy landed AND the tensor's forward
    // consumers are done with it (vDNN-style release point).
    if (t->locked() || hooks_.last_forward_use(uid) > step) continue;
    if (engine_->try_retire(TransferDir::kD2H, uid)) release_offloaded(t);
  }
}

void UnifiedTensorPool::drain() {
  for (uint64_t uid : engine_->pending_tags(TransferDir::kD2H)) {
    engine_->wait(TransferDir::kD2H, uid);
    release_offloaded(by_uid(uid));
  }
  for (uint64_t uid : engine_->pending_tags(TransferDir::kH2D)) {
    engine_->wait(TransferDir::kH2D, uid);
  }
  // Land outstanding fetch-backs (ordered map: reproducible wait order).
  while (!peer_fetches_.empty()) {
    land_peer_fetch(by_uid(peer_fetches_.begin()->first));
  }
}

}  // namespace sn::core
