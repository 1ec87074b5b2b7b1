// Fixed-size thread pool with a parallel_for used by the CPU kernel library.
//
// A pool has a number of lanes. A default-sized pool has one lane per CPU in
// the process's affinity mask (sched_getaffinity; hardware_concurrency when
// the mask cannot be read), so a process pinned to one CPU gets one lane. The
// thread that calls parallel_for is one of the lanes: it runs the first range
// itself, and the pool starts only lanes - 1 worker threads. A one-lane pool
// starts no thread and runs every call inline.
//
// parallel_for hands each lane one contiguous range [lo, hi) rather than one
// index at a time, so a kernel's per-element work is a plain loop the
// compiler can vectorize. The nn kernels split their outermost loop this way;
// determinism is preserved because each index writes a disjoint output slice,
// and no kernel's result depends on where the ranges are cut.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sn::util {

class ThreadPool {
 public:
  /// `lanes == 0` means one lane per CPU the process may run on.
  explicit ThreadPool(size_t lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads plus the calling thread.
  size_t lanes() const { return workers_.size() + 1; }

  /// Split [begin, end) into at most lanes() contiguous, disjoint, non-empty
  /// ranges, call fn(lo, hi) once per range (the caller runs the first), and
  /// block until all of them return. Runs fn(begin, end) inline when the pool
  /// has one lane, the range has one index, or the call is nested inside
  /// another parallel_for.
  void parallel_for(size_t begin, size_t end, const std::function<void(size_t, size_t)>& fn);

  /// Process-wide pool shared by the nn kernels.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace sn::util
