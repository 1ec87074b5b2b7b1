#include "mem/host_pool.hpp"

#include <cassert>

#include "util/logging.hpp"

namespace sn::mem {

uint64_t HostPool::allocate(uint64_t bytes) {
  ++alloc_calls_;
  if (in_use_ + bytes > capacity_) {
    ++failed_allocs_;
    return 0;
  }
  uint64_t id = next_id_++;
  Allocation& a = live_[id];
  a.bytes = bytes;
  if (backed_) a.buffer.resize(bytes);
  in_use_ += bytes;
  if (in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  return id;
}

void HostPool::deallocate(uint64_t handle) {
  ++free_calls_;
  auto it = live_.find(handle);
  if (it == live_.end()) {
    SN_ERROR << "HostPool::deallocate: unknown handle " << handle;
    ++bad_frees_;
    assert(false && "double free or bad handle");
    return;
  }
  in_use_ -= it->second.bytes;
  live_.erase(it);
}

void* HostPool::ptr(uint64_t handle) {
  auto it = live_.find(handle);
  return it == live_.end() || it->second.buffer.empty() ? nullptr : it->second.buffer.data();
}

HostPoolStats HostPool::stats() const {
  HostPoolStats s;
  s.capacity = capacity_;
  s.in_use = in_use_;
  s.peak_in_use = peak_in_use_;
  s.alloc_calls = alloc_calls_;
  s.free_calls = free_calls_;
  s.failed_allocs = failed_allocs_;
  s.bad_frees = bad_frees_;
  return s;
}

}  // namespace sn::mem
