// Heap-based GPU memory pool (paper §3.2.1).
//
// The pool pre-allocates one big chunk of device memory, divides it into
// fixed-size blocks (1 KB in the paper), and services allocations from an
// ordered free list with first-fit, tracking live allocations in an
// ID -> node hash. This removes the cudaMalloc/cudaFree latency from the
// high-frequency tensor churn that Liveness Analysis creates (the paper
// measures ResNet50 losing 36.28% of step time to native allocation).
//
// Beyond the paper's description we coalesce adjacent free nodes on
// deallocation; without coalescing, the alternating alloc/free pattern of
// back-propagation fragments the chunk within one iteration.
//
// The pool can optionally be *backed* by real host memory, in which case
// `ptr()` yields a usable buffer for the real execution engine; unbacked
// pools manage pure address space (used when simulating 12 GB devices on
// small machines).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

namespace sn::mem {

/// One serviced allocation.
struct PoolAllocation {
  uint64_t id = 0;      ///< handle for deallocate()
  uint64_t offset = 0;  ///< byte offset inside the chunk
  uint64_t bytes = 0;   ///< rounded-up size actually reserved
};

struct PoolStats {
  uint64_t capacity = 0;
  uint64_t in_use = 0;
  uint64_t peak_in_use = 0;
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t failed_allocs = 0;
  uint64_t bad_frees = 0;  ///< deallocate() of an unknown id
  uint64_t largest_free = 0;
  size_t free_nodes = 0;
  size_t allocated_nodes = 0;
};

/// Free-node selection strategy. The paper's pool uses first-fit ("finds the
/// first node with enough free memory"); best-fit is provided for the
/// fragmentation ablation.
enum class FitPolicy { kFirstFit, kBestFit };

class MemoryPool {
 public:
  /// `capacity` is rounded down to a whole number of `block_bytes` blocks.
  /// `backed == true` allocates a real slab so ptr() works.
  MemoryPool(uint64_t capacity, uint64_t block_bytes = kDefaultBlockBytes, bool backed = false,
             FitPolicy fit = FitPolicy::kFirstFit);

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  /// First-fit allocation; nullopt when no free node is large enough (the
  /// caller decides whether that is an OOM or a trigger for eviction).
  std::optional<PoolAllocation> allocate(uint64_t bytes);

  /// Return an allocation to the free list (coalescing neighbours).
  /// Unknown ids are a programming error: they abort in debug builds and are
  /// counted in stats().bad_frees in release builds (same contract as
  /// HostPool::deallocate).
  void deallocate(uint64_t id);

  uint64_t capacity() const { return capacity_; }
  uint64_t block_bytes() const { return block_bytes_; }
  uint64_t in_use() const { return in_use_; }
  uint64_t free_bytes() const { return capacity_ - in_use_; }
  uint64_t largest_free() const;

  /// High-water mark of in_use() since construction or the last reset_peak().
  uint64_t peak_in_use() const { return peak_in_use_; }
  void reset_peak() { peak_in_use_ = in_use_; }

  PoolStats stats() const;

  /// Real pointer to live allocation `id` in a backed pool; nullptr when
  /// unbacked or `id` is not live.
  void* ptr(uint64_t id);
  bool backed() const { return !slab_.empty(); }

  /// Structural invariant check used by tests: nodes tile the chunk exactly,
  /// no overlap, free map consistent with in_use accounting.
  bool validate() const;

  static constexpr uint64_t kDefaultBlockBytes = 1024;  // paper's 1 KB unit

 private:
  uint64_t round_up(uint64_t bytes) const {
    return (bytes + block_bytes_ - 1) / block_bytes_ * block_bytes_;
  }

  uint64_t capacity_;
  uint64_t block_bytes_;
  FitPolicy fit_;
  uint64_t in_use_ = 0;
  uint64_t peak_in_use_ = 0;
  uint64_t next_id_ = 1;
  uint64_t alloc_calls_ = 0;
  uint64_t free_calls_ = 0;
  uint64_t failed_allocs_ = 0;
  uint64_t bad_frees_ = 0;

  /// Free nodes keyed by offset (ordered => first-fit scan + O(log n)
  /// neighbour lookup for coalescing). Value = node size in bytes.
  std::map<uint64_t, uint64_t> free_by_offset_;

  /// Live allocations: id -> (offset, bytes).
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> allocated_;

  std::vector<std::byte> slab_;
};

}  // namespace sn::mem
