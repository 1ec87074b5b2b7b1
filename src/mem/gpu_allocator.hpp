// Device-memory allocator: one MemoryPool (the address space, the only
// handle -> (offset, bytes) map and the byte high-water mark) plus a charge
// policy that says what each call costs the simulated Machine:
//
//   * native — models cudaMalloc/cudaFree: every call synchronizes the
//     device and costs latency on the compute stream; 256 B blocks.
//   * pooled — the paper's pre-allocated heap (§3.2.1, Table 2): each call
//     costs a sub-microsecond bookkeeping charge; 1 KB blocks.
//
// Both enforce the device capacity: allocation fails (nullopt) rather than
// overcommitting, so callers (UTP / Tensor Cache) must evict or recompute.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/mem_pool.hpp"
#include "sim/machine.hpp"

namespace sn::mem {

class GpuAllocator {
 public:
  /// `native` picks the cudaMalloc charge policy and block size; otherwise
  /// the pooled one. `backed` gives ptr() real memory.
  GpuAllocator(sim::Machine& machine, uint64_t capacity, bool native, bool backed = false);

  /// Allocate `bytes`; returns an opaque handle or nullopt on OOM.
  std::optional<uint64_t> allocate(uint64_t bytes);
  void deallocate(uint64_t handle);

  uint64_t in_use() const { return pool_.in_use(); }
  /// Largest satisfiable single allocation (capacity-fragmentation aware).
  uint64_t largest_free() const { return pool_.largest_free(); }

  /// Most bytes in use since construction or the last reset_peak().
  uint64_t peak_in_use() const { return pool_.peak_in_use(); }
  void reset_peak() { pool_.reset_peak(); }

  /// Backing pointer for real execution; nullptr when running unbacked.
  void* ptr(uint64_t handle) { return pool_.ptr(handle); }

  /// Bookkeeping cost per pooled op charged to the compute stream.
  static constexpr double kPoolOpSeconds = 0.5e-6;
  /// cudaMalloc's allocation granularity in the native model.
  static constexpr uint64_t kNativeBlockBytes = 256;

 private:
  sim::Machine& machine_;
  bool native_;
  MemoryPool pool_;
};

}  // namespace sn::mem
