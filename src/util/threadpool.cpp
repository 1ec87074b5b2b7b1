#include "util/threadpool.hpp"

#include <algorithm>

namespace sn::util {

namespace {
// Set while a pool worker executes a task; nested parallel_for calls from
// inside a kernel (e.g. a per-image conv loop calling sgemm) then run inline
// instead of deadlocking on the same pool.
thread_local bool tl_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  size_t n = threads ? threads : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
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
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    tl_in_worker = true;
    task();
    tl_in_worker = false;
  }
}

void ThreadPool::parallel_for(size_t begin, size_t end, const std::function<void(size_t)>& fn) {
  if (end <= begin) return;
  size_t range = end - begin;
  size_t nthreads = std::min(workers_.size(), range);
  if (tl_in_worker || nthreads <= 1 || range < 2) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // `remaining`, `done_mu` and `done_cv` live on this frame. The last worker
  // must decrement and notify while holding done_mu: once it releases the
  // lock, the caller may see zero, return, and destroy all three.
  size_t remaining = nthreads;
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t chunk = (range + nthreads - 1) / nthreads;

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t t = 0; t < nthreads; ++t) {
      size_t lo = begin + t * chunk;
      size_t hi = std::min(end, lo + chunk);
      tasks_.push([&, lo, hi] {
        for (size_t i = lo; i < hi; ++i) fn(i);
        std::lock_guard<std::mutex> dl(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> dl(done_mu);
  done_cv.wait(dl, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace sn::util
