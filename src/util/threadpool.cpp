#include "util/threadpool.hpp"

#include <sched.h>

#include <algorithm>
#include <exception>

namespace sn::util {

namespace {
// Set while a thread runs a lane of a parallel_for; nested parallel_for calls
// from inside a kernel (e.g. a per-image conv loop calling sgemm) then run
// inline instead of deadlocking on the same pool.
thread_local bool tl_in_worker = false;

/// CPUs in the process's affinity mask, or hardware_concurrency when the mask
/// cannot be read; at least 1.
size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<size_t>(CPU_COUNT(&set));
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}
}  // namespace

ThreadPool::ThreadPool(size_t lanes) {
  const size_t n = lanes ? lanes : affinity_cpus();
  workers_.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tl_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  const size_t range = end - begin;
  const size_t nlanes = std::min(lanes(), range);
  if (tl_in_worker || nlanes <= 1) {
    fn(begin, end);
    return;
  }

  // Lane t gets range / nlanes indices, plus one for the first range % nlanes
  // lanes, in order; the caller is lane 0.
  const size_t base = range / nlanes, extra = range % nlanes;
  auto lane_begin = [&](size_t t) { return begin + t * base + std::min(t, extra); };

  // `remaining`, `done_mu` and `done_cv` live on this frame. The last worker
  // must decrement and notify while holding done_mu: once it releases the
  // lock, the caller may see zero, return, and destroy all three.
  size_t remaining = nlanes - 1;
  std::mutex done_mu;
  std::condition_variable done_cv;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t t = 1; t < nlanes; ++t) {
      tasks_.push([&, lo = lane_begin(t), hi = lane_begin(t + 1)] {
        fn(lo, hi);
        std::lock_guard<std::mutex> dl(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  for (size_t t = 1; t < nlanes; ++t) cv_.notify_one();

  // The workers hold references into this frame, so an exception from the
  // caller's own range waits for them before it propagates.
  std::exception_ptr err;
  tl_in_worker = true;
  try {
    fn(begin, lane_begin(1));
  } catch (...) {
    err = std::current_exception();
  }
  tl_in_worker = false;

  std::unique_lock<std::mutex> dl(done_mu);
  done_cv.wait(dl, [&] { return remaining == 0; });
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace sn::util
