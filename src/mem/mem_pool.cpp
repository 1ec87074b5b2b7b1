#include "mem/mem_pool.hpp"

#include <cassert>

#include "util/logging.hpp"

namespace sn::mem {

MemoryPool::MemoryPool(uint64_t capacity, uint64_t block_bytes, bool backed, FitPolicy fit)
    : capacity_(capacity / block_bytes * block_bytes), block_bytes_(block_bytes), fit_(fit) {
  assert(block_bytes_ > 0);
  if (capacity_ > 0) free_by_offset_.emplace(0, capacity_);
  if (backed) slab_.resize(capacity_);
}

std::optional<PoolAllocation> MemoryPool::allocate(uint64_t bytes) {
  ++alloc_calls_;
  uint64_t need = round_up(bytes == 0 ? 1 : bytes);
  auto chosen = free_by_offset_.end();
  if (fit_ == FitPolicy::kFirstFit) {
    // First fit: lowest-offset free node large enough (paper §3.2.1).
    for (auto it = free_by_offset_.begin(); it != free_by_offset_.end(); ++it) {
      if (it->second >= need) {
        chosen = it;
        break;
      }
    }
  } else {
    // Best fit: the smallest node that still fits (ties -> lowest offset).
    for (auto it = free_by_offset_.begin(); it != free_by_offset_.end(); ++it) {
      if (it->second < need) continue;
      if (chosen == free_by_offset_.end() || it->second < chosen->second) chosen = it;
      if (it->second == need) break;  // exact fit: cannot do better
    }
  }
  if (chosen == free_by_offset_.end()) {
    ++failed_allocs_;
    return std::nullopt;
  }
  uint64_t offset = chosen->first;
  uint64_t remaining = chosen->second - need;
  free_by_offset_.erase(chosen);
  if (remaining > 0) free_by_offset_.emplace(offset + need, remaining);
  uint64_t id = next_id_++;
  allocated_.emplace(id, std::make_pair(offset, need));
  in_use_ += need;
  if (in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  return PoolAllocation{id, offset, need};
}

void MemoryPool::deallocate(uint64_t id) {
  ++free_calls_;
  auto it = allocated_.find(id);
  if (it == allocated_.end()) {
    SN_ERROR << "MemoryPool::deallocate: unknown id " << id;
    ++bad_frees_;
    assert(false && "double free or bad id");
    return;
  }
  auto [offset, bytes] = it->second;
  allocated_.erase(it);
  in_use_ -= bytes;

  // Insert and coalesce with the previous / next free nodes when adjacent.
  auto [pos, inserted] = free_by_offset_.emplace(offset, bytes);
  assert(inserted);
  if (pos != free_by_offset_.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      free_by_offset_.erase(pos);
      pos = prev;
    }
  }
  auto next = std::next(pos);
  if (next != free_by_offset_.end() && pos->first + pos->second == next->first) {
    pos->second += next->second;
    free_by_offset_.erase(next);
  }
}

uint64_t MemoryPool::largest_free() const {
  uint64_t best = 0;
  for (const auto& [off, sz] : free_by_offset_)
    if (sz > best) best = sz;
  return best;
}

PoolStats MemoryPool::stats() const {
  PoolStats s;
  s.capacity = capacity_;
  s.in_use = in_use_;
  s.peak_in_use = peak_in_use_;
  s.alloc_calls = alloc_calls_;
  s.free_calls = free_calls_;
  s.failed_allocs = failed_allocs_;
  s.bad_frees = bad_frees_;
  s.largest_free = largest_free();
  s.free_nodes = free_by_offset_.size();
  s.allocated_nodes = allocated_.size();
  return s;
}

void* MemoryPool::ptr(uint64_t id) {
  if (slab_.empty()) return nullptr;
  auto it = allocated_.find(id);
  return it == allocated_.end() ? nullptr : slab_.data() + it->second.first;
}

bool MemoryPool::validate() const {
  // Collect all nodes (free + allocated), sort by offset, check exact tiling.
  std::map<uint64_t, std::pair<uint64_t, bool>> nodes;  // offset -> (size, is_free)
  for (const auto& [off, sz] : free_by_offset_) {
    if (!nodes.emplace(off, std::make_pair(sz, true)).second) return false;
  }
  uint64_t allocated_total = 0;
  for (const auto& [id, node] : allocated_) {
    (void)id;
    if (!nodes.emplace(node.first, std::make_pair(node.second, false)).second) return false;
    allocated_total += node.second;
  }
  if (allocated_total != in_use_) return false;
  uint64_t cursor = 0;
  bool prev_free = false;
  for (const auto& [off, node] : nodes) {
    if (off != cursor) return false;                  // gap or overlap
    if (node.first % block_bytes_ != 0) return false; // unaligned node
    if (node.second && prev_free) return false;       // un-coalesced neighbours
    prev_free = node.second;
    cursor += node.first;
  }
  return cursor == capacity_;
}

}  // namespace sn::mem
