#include "mem/gpu_allocator.hpp"

namespace sn::mem {

GpuAllocator::GpuAllocator(sim::Machine& machine, uint64_t capacity, bool native, bool backed)
    : machine_(machine),
      native_(native),
      pool_(capacity, native ? kNativeBlockBytes : MemoryPool::kDefaultBlockBytes, backed) {}

std::optional<uint64_t> GpuAllocator::allocate(uint64_t bytes) {
  if (native_) {
    machine_.native_malloc(bytes);
  } else {
    machine_.run_compute(kPoolOpSeconds);
  }
  auto a = pool_.allocate(bytes);
  if (!a) return std::nullopt;
  return a->id;
}

void GpuAllocator::deallocate(uint64_t handle) {
  if (native_) {
    machine_.native_free();
  } else {
    machine_.run_compute(kPoolOpSeconds);
  }
  pool_.deallocate(handle);
}

}  // namespace sn::mem
