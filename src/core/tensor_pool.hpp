// Unified Tensor Pool: the per-tensor memory-state machine (paper §3.3.1).
//
// Owns the device allocator (one class; Config::use_pool_allocator picks its
// charge policy: the pooled heap or the cudaMalloc model), the pinned host
// pool, the LRU Tensor Cache and the TransferEngine, and is the only
// component that moves a tensor between its placement states:
//
//     kNone ──alloc──> kDevice ──offload──> kBoth ──release──> kHost
//       ^                 │ ^                                     │ ^
//       └─free_tensor─────┤ └─────────fetch/fetch_ahead───────────┘ │
//                         ├──drop──> kDropped   (recompute restores)│
//                         └──stage──> kPeer ──(host spills guest)───┘
//                                       └──fetch/fetch_ahead──> kDevice
//
// Both ways back to the device, from kHost and from kPeer, go through the
// same calls — land(), fetch(), fetch_ahead() — and one release path,
// free_tensor() / drop_tensor(), frees every copy wherever it lives. The
// pool picks the tier; its callers never name one.
//
// The kPeer tier (peer-memory staging) is active only when a
// PeerStagingGroup is attached: eviction may then route a dirty tensor into
// a peer device's pool over an idle P2P link instead of the backlogged D2H
// uplink, and fetch it back the same way. The peer can spill the staged copy
// to the owner's host pool under its own pressure, degrading transparently
// to the ordinary kHost path.
//
// The pool is pure mechanism: *what* to evict comes from the cache's LRU
// order plus the hooks the orchestrator installs (is a tensor droppable by
// the recompute plan? persistent per liveness? when is its last forward
// use?). The Runtime decides when to call these transitions; the pool
// guarantees they are safe (locked tensors are never victims, device memory
// is never reclaimed under an in-flight transfer) and keeps the counters
// telemetry reads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "core/tensor_cache.hpp"
#include "core/transfer_engine.hpp"
#include "mem/gpu_allocator.hpp"
#include "mem/host_pool.hpp"
#include "tensor/tensor.hpp"

namespace sn::core {

class PeerStagingGroup;

class UnifiedTensorPool {
 public:
  struct Config {
    bool real = false;            ///< backed pools + physical copies
    bool use_pool_allocator = true;
    bool tensor_cache = true;     ///< lazy pressure-driven eviction (§3.3.2)
    bool async_transfers = true;  ///< overlap DMA with compute
    bool pinned_host = true;
    uint64_t device_capacity = 0;
    uint64_t host_capacity = 0;
    int device_id = 0;            ///< cluster device this pool's handles live on
  };

  /// Policy callbacks the orchestrator installs (recompute / liveness live
  /// above the pool; the pool must not depend on them).
  struct Hooks {
    /// Recompute can restore this tensor without a transfer.
    std::function<bool(const tensor::Tensor*)> droppable = [](const tensor::Tensor*) {
      return false;
    };
    /// Persistent tensors (params etc.) never enter the cache.
    std::function<bool(uint64_t)> persistent = [](uint64_t) { return false; };
    /// Last forward step reading a tensor; gates the vDNN-style release point.
    std::function<int(uint64_t)> last_forward_use = [](uint64_t) { return -1; };
  };

  UnifiedTensorPool(tensor::TensorRegistry& registry, sim::Machine& machine, Config cfg,
                    Hooks hooks);
  ~UnifiedTensorPool();

  // --- state transitions ----------------------------------------------------

  /// Backing pointer in real mode (nullptr otherwise / when not resident).
  float* device_ptr(const tensor::Tensor* t);

  /// Allocate device memory for `t` and mark it kDevice, evicting LRU
  /// victims under pressure (Alg. 2 LRU.out). Throws OomError when nothing
  /// more can be reclaimed.
  void alloc_device(tensor::Tensor* t);

  /// Evict one tensor: drop it if recompute can restore it; else stage it in
  /// a peer pool when the staging router says the P2P link beats the D2H
  /// backlog; else offload synchronously (the memory is reused immediately).
  void evict_one(tensor::Tensor* t);

  /// Copy to the host pool. `async` (with cfg.async_transfers) leaves the
  /// transfer in flight — poll_offloads() releases the device copy later;
  /// otherwise the device copy is released before returning.
  void offload_to_host(tensor::Tensor* t, bool async);

  /// Drop the device copy of a clean (kBoth) tensor, keeping the host copy.
  void release_offloaded(tensor::Tensor* t);

  // --- the way back to the device -------------------------------------------
  // An off-device tensor comes back from the host pool (kHost) or from a
  // peer's pool (kPeer); these calls pick the tier, so callers never do.

  /// Land any in-flight stage-in of `t` (host prefetch or peer fetch-back);
  /// afterwards its residency is final. No-op when none is pending.
  void land(tensor::Tensor* t);

  /// A kernel is about to read `t`: land any stage-in; a device-resident
  /// tensor counts a Tensor Cache hit, and an off-device copy is fetched now
  /// (evicting for room if needed) and counts a miss. Returns false, moving
  /// nothing, when `t` has no copy anywhere (kNone / kDropped).
  bool fetch(tensor::Tensor* t);

  /// Start staging an off-device `t` back asynchronously; land() or fetch()
  /// retires it. Returns false — and moves nothing — only when the free
  /// device memory cannot fit it: staging back must never trigger eviction
  /// (§3.3.1). A tensor on the device, already staging or with no copy is
  /// left alone. A peer fetch-back rides the PEER's engine (this pool's
  /// machine stalls on the arrival) and the tensor stays kPeer until landed.
  bool fetch_ahead(tensor::Tensor* t);

  /// Release every copy of `t` (device, host, a staged peer copy and any
  /// in-flight fetch-back): liveness end of life, leaving kNone...
  void free_tensor(tensor::Tensor* t) { release(t, tensor::Residency::kNone); }
  /// ...or a recompute drop, leaving kDropped.
  void drop_tensor(tensor::Tensor* t) { release(t, tensor::Residency::kDropped); }

  /// A kernel is about to write `t`: any host copy is stale. Keeps the host
  /// allocation (a future offload reuses the buffer) but drops the "clean"
  /// kBoth state so pass-0 eviction cannot resurrect outdated bytes.
  void mark_dirty(tensor::Tensor* t);

  /// Sim-only in-place alias: count the tensor live without device memory.
  void adopt_alias(tensor::Tensor* t);

  /// Retire completed offloads whose tensors are past their last forward use
  /// and unlocked (the vDNN release point).
  void poll_offloads(int step);

  /// End-of-iteration: wait out all in-flight DMA, release offloaded copies.
  void drain();

  bool offload_pending(uint64_t uid) const {
    return engine_->pending(TransferDir::kD2H, uid);
  }

  // --- peer-memory staging (active only with a PeerStagingGroup attached) ---

  /// Try to evict `t` into a peer member's pool over P2P instead of the host
  /// uplink. Synchronous (the device memory is reused immediately), like the
  /// eviction offload it replaces. Returns false — and moves nothing — when
  /// no group is attached, no peer beats the host ETA, or the tensor has an
  /// offload already in flight (the host path owns that case).
  bool stage_to_peer(tensor::Tensor* t);

  // Guest side (host-pool role; called by the PeerStagingGroup / owner pool).

  /// Reserve `bytes` of free pool space for a staged guest. Never evicts and
  /// never touches the tensor cache (guests are invisible to this pool's LRU
  /// order). Returns 0 when the free space cannot fit it.
  uint64_t accept_guest(uint64_t bytes);
  void* guest_ptr(uint64_t handle) { return allocator_.ptr(handle); }
  void release_guest(uint64_t handle) { allocator_.deallocate(handle); }

  /// Spill the guest holding `owner`'s tensor `uid` (handle `handle`) to the
  /// OWNER's host pool over THIS pool's D2H engine, synchronously; the owner's
  /// tensor degrades to plain kHost. `tag` must come from the group's tag
  /// namespace (disjoint from this pool's uid-keyed D2H tags).
  void spill_guest_to_owner(UnifiedTensorPool& owner, uint64_t uid, uint64_t handle,
                            uint64_t tag);

  void set_staging_group(PeerStagingGroup* g) { group_ = g; }
  sim::Machine& machine() { return machine_; }

  // --- components & counters ------------------------------------------------

  mem::GpuAllocator& allocator() { return allocator_; }
  const mem::GpuAllocator& allocator() const { return allocator_; }
  mem::HostPool& host_pool() { return host_pool_; }
  const mem::HostPool& host_pool() const { return host_pool_; }
  TensorCache& cache() { return cache_; }
  const TensorCache& cache() const { return cache_; }
  TransferEngine& engine() { return *engine_; }
  const TransferEngine& engine() const { return *engine_; }

  /// Cluster device every handle this pool hands out lives on (0 when
  /// single-device); replica pools in dist:: setups each carry their own.
  int device_id() const { return cfg_.device_id; }

  uint64_t live_count() const { return live_count_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t alloc_count() const { return alloc_count_; }

  // Peer-staging counters (owner-side: spills count against the owner whose
  // tensor degraded to kHost, wherever it was hosted).
  uint64_t peer_stage_count() const { return peer_stage_count_; }
  uint64_t peer_stage_bytes() const { return peer_stage_bytes_; }
  uint64_t peer_fetch_count() const { return peer_fetch_count_; }
  uint64_t peer_spill_count() const { return peer_spill_count_; }

  /// Windowed pressure signal: an eviction happened within the last
  /// kPressureWindowAllocs device allocations. It decays as allocation
  /// traffic moves on, so the peer-staging router can tell a
  /// currently-squeezed pool from one that merely had a rough start.
  bool under_pressure_now() const {
    return evictions_ > 0 && alloc_count_ - last_eviction_alloc_ <= kPressureWindowAllocs;
  }
  static constexpr uint64_t kPressureWindowAllocs = 32;

  /// Start an iteration's counters: evictions and allocations restart at
  /// zero and the device high-water mark at the bytes in use now.
  void reset_iteration_counters() {
    allocator_.reset_peak();
    evictions_ = 0;
    alloc_count_ = 0;
    last_eviction_alloc_ = 0;
  }

 private:
  tensor::Tensor* by_uid(uint64_t uid) { return registry_.get(uid); }

  /// Allocation with eviction (Alg. 2 LRU.out); leaves the residency to
  /// the caller.
  void allocate(tensor::Tensor* t);
  /// Release the device copy (waits out any in-flight transfer first).
  void free_device(tensor::Tensor* t);
  /// Free every copy of `t` and set its final residency.
  void release(tensor::Tensor* t, tensor::Residency final_residency);

  /// Allocate `t` on the device and submit its H2D copy (fetch_ahead and
  /// fetch alike; the caller owns the room check).
  void submit_host_fetch(tensor::Tensor* t);
  /// Allocate `t` on the device and submit its fetch-back on the peer's
  /// engine, registered in peer_fetches_ until land_peer_fetch().
  void submit_peer_fetch(tensor::Tensor* t);
  /// Wait out an in-flight peer fetch of `t` (no-op when none is pending).
  void land_peer_fetch(tensor::Tensor* t);

  tensor::TensorRegistry& registry_;
  sim::Machine& machine_;
  Config cfg_;
  Hooks hooks_;
  mem::GpuAllocator allocator_;
  mem::HostPool host_pool_;
  TensorCache cache_;
  std::unique_ptr<TransferEngine> engine_;  ///< declared after allocator_ and
                                            ///< host_pool_: its DMA workers copy
                                            ///< into their buffers, so it stops first
  PeerStagingGroup* group_ = nullptr;       ///< non-null while a member

  /// In-flight asynchronous fetch-backs, keyed by tensor uid. Ordered map:
  /// drain() walks it, and wait order must be reproducible.
  struct PendingPeerFetch {
    int peer = -1;
    uint64_t tag = 0;
    sim::Event event;
    uint64_t flow = 0;
  };
  std::map<uint64_t, PendingPeerFetch> peer_fetches_;

  uint64_t live_count_ = 0;
  uint64_t evictions_ = 0;
  uint64_t alloc_count_ = 0;
  uint64_t last_eviction_alloc_ = 0;  ///< alloc_count_ at the most recent eviction
  uint64_t peer_stage_count_ = 0;
  uint64_t peer_stage_bytes_ = 0;
  uint64_t peer_fetch_count_ = 0;
  uint64_t peer_spill_count_ = 0;
};

}  // namespace sn::core
