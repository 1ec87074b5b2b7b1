// Pinned host-memory pool: the offload target of the Unified Tensor Pool.
//
// The paper pre-allocates pinned CPU DRAM so that offload/prefetch transfers
// run at full PCIe speed (TensorFlow's pageable transfers lose >= 50%,
// paper §2.2). We model the pool as capacity accounting plus, in backed mode,
// per-allocation real buffers that hold offloaded tensor contents for the
// real execution engine. Both transfer backends copy straight between
// device buffers and these host buffers; nothing else draws on the pool.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sn::mem {

struct HostPoolStats {
  uint64_t capacity = 0;
  uint64_t in_use = 0;
  uint64_t peak_in_use = 0;
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t failed_allocs = 0;  ///< over-capacity requests (returned handle 0)
  uint64_t bad_frees = 0;      ///< deallocate() of an unknown handle
};

class HostPool {
 public:
  /// `pinned` determines the transfer speed tensors offloaded here get.
  explicit HostPool(uint64_t capacity, bool pinned = true, bool backed = false)
      : capacity_(capacity), pinned_(pinned), backed_(backed) {}

  /// Reserve `bytes`; returns a handle (0 is never returned) or 0 on OOM.
  uint64_t allocate(uint64_t bytes);

  /// Release a handle. Unknown handles are a programming error: they abort
  /// in debug builds and are counted in stats().bad_frees in release builds
  /// (mirroring MemoryPool::deallocate).
  void deallocate(uint64_t handle);

  /// Buffer for a backed allocation (nullptr otherwise).
  void* ptr(uint64_t handle);

  bool pinned() const { return pinned_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t in_use() const { return in_use_; }
  uint64_t peak_in_use() const { return peak_in_use_; }
  uint64_t free_bytes() const { return capacity_ - in_use_; }

  HostPoolStats stats() const;

 private:
  uint64_t capacity_;
  bool pinned_;
  bool backed_;
  uint64_t in_use_ = 0;
  uint64_t peak_in_use_ = 0;
  uint64_t next_id_ = 1;
  uint64_t alloc_calls_ = 0;
  uint64_t free_calls_ = 0;
  uint64_t failed_allocs_ = 0;
  uint64_t bad_frees_ = 0;

  struct Allocation {
    uint64_t bytes = 0;
    std::vector<std::byte> buffer;  ///< empty unless backed
  };
  std::unordered_map<uint64_t, Allocation> live_;
};

}  // namespace sn::mem
