// Unit tests for the util substrate: RNG determinism, stats, table printer,
// thread pool correctness.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace sn::util;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    float v = r.next_float();
    ASSERT_GE(v, 0.0f);
    ASSERT_LT(v, 1.0f);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Accumulator, BasicStats) {
  Accumulator a;
  for (double v : {1.0, 2.0, 3.0, 4.0}) a.add(v);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_NEAR(a.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KB");
  EXPECT_EQ(format_bytes(3ull << 30), "3.00 GB");
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22    |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.to_string().find("| x |"), std::string::npos);
}

TEST(Series, RendersSharedAxis) {
  std::string s = render_series("title", "batch", {1, 2}, {{"y1", {0.5, 1.5}}, {"y2", {2.0, 3.0}}});
  EXPECT_NE(s.find("== title =="), std::string::npos);
  EXPECT_NE(s.find("batch"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
}

/// Threads in this process, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// CPUs in this process's affinity mask.
int affinity_cpus(cpu_set_t* mask) {
  CPU_ZERO(mask);
  if (sched_getaffinity(0, sizeof *mask, mask) != 0) return -1;
  return CPU_COUNT(mask);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RangesAreDisjointContiguousAndCoverTheRangeOnce) {
  for (size_t lanes = 1; lanes <= 4; ++lanes) {
    ThreadPool pool(lanes);
    ASSERT_EQ(pool.lanes(), lanes);
    for (size_t size = 0; size <= 64; ++size) {
      const size_t begin = 7, end = begin + size;
      std::mutex mu;
      std::vector<std::pair<size_t, size_t>> ranges;
      pool.parallel_for(begin, end, [&](size_t lo, size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(lo, hi);
      });
      std::sort(ranges.begin(), ranges.end());
      SCOPED_TRACE("lanes " + std::to_string(lanes) + ", size " + std::to_string(size));
      EXPECT_EQ(ranges.size(), std::min(lanes, size));
      size_t next = begin;
      for (auto [lo, hi] : ranges) {
        EXPECT_EQ(lo, next);
        EXPECT_LT(lo, hi);
        next = hi;
      }
      EXPECT_EQ(next, end);
    }
  }
}

TEST(ThreadPool, OneLanePoolRunsInlineAndStartsNoThread) {
  const int before = process_threads();
  ASSERT_GT(before, 0);
  ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  EXPECT_EQ(process_threads(), before);
  std::vector<std::pair<size_t, size_t>> ranges;
  std::thread::id ran_on;
  pool.parallel_for(3, 1003, [&](size_t lo, size_t hi) {
    ranges.emplace_back(lo, hi);
    ran_on = std::this_thread::get_id();
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(size_t{3}, size_t{1003}));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(process_threads(), before);
}

TEST(ThreadPool, CallerRunsTheFirstRangeAndStartsOneThreadFewer) {
  const int before = process_threads();
  ThreadPool pool(4);
  EXPECT_EQ(process_threads(), before + 3);
  std::thread::id first_range_on;
  pool.parallel_for(0, 400, [&](size_t lo, size_t) {
    if (lo == 0) first_range_on = std::this_thread::get_id();
  });
  EXPECT_EQ(first_range_on, std::this_thread::get_id());
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  std::atomic<long> sum{0};
  pool.parallel_for(0, 4, [&](size_t, size_t) {
    pool.parallel_for(0, 100, [&](size_t lo, size_t hi) {
      inner_calls.fetch_add(1);
      for (size_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<long>(i));
    });
  });
  EXPECT_EQ(inner_calls.load(), 4);
  EXPECT_EQ(sum.load(), 4 * 4950);
}

TEST(ThreadPool, ExceptionInTheCallersRangeWaitsForTheWorkers) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](size_t lo, size_t) {
                                   if (lo == 0) throw std::runtime_error("lane 0");
                                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
  cpu_set_t mask;
  const int cpus = affinity_cpus(&mask);
  ASSERT_GT(cpus, 0);
  EXPECT_EQ(ThreadPool().lanes(), static_cast<size_t>(cpus));

  // A child pinned to one CPU gets a one-lane pool. The threadsafe style
  // re-executes this binary for the child, so no pool thread of this process
  // is forked with it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  EXPECT_EXIT(
      {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(first, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0) std::_Exit(2);
        std::_Exit(ThreadPool().lanes() == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, NestedInvocationsFromGlobal) {
  // Kernels call the global pool from bench/test threads repeatedly.
  auto& pool = ThreadPool::global();
  std::atomic<long> sum{0};
  for (int rep = 0; rep < 10; ++rep) {
    pool.parallel_for(0, 100, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 10 * 4950);
}

TEST(ThreadPool, ManyTinyCallsNeverOutliveTheCaller) {
  // Each call's completion state lives on the caller's stack; a worker that
  // touches it after the caller returned corrupts the next call's frame.
  // Thousands of two-range calls keep that window busy (TSan flags it).
  ThreadPool pool(4);
  long total = 0;
  for (int rep = 0; rep < 20000; ++rep) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 2 + static_cast<size_t>(rep % 7), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<long>(i));
    });
    total += sum.load();
  }
  long expect = 0;
  for (int rep = 0; rep < 20000; ++rep) {
    const long n = 2 + rep % 7;
    expect += n * (n - 1) / 2;
  }
  EXPECT_EQ(total, expect);
}

}  // namespace
