// Unit tests for the util substrate: RNG determinism, stats, table printer,
// thread pool correctness.
#include <gtest/gtest.h>

#include <atomic>
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

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, NestedInvocationsFromGlobal) {
  // Kernels call the global pool from bench/test threads repeatedly.
  auto& pool = ThreadPool::global();
  std::atomic<long> sum{0};
  for (int rep = 0; rep < 10; ++rep) {
    pool.parallel_for(0, 100, [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 10 * 4950);
}

TEST(ThreadPool, ManyTinyCallsNeverOutliveTheCaller) {
  // Each call's completion state lives on the caller's stack; a worker that
  // touches it after the caller returned corrupts the next call's frame.
  // Thousands of two-chunk calls keep that window busy (TSan flags it).
  ThreadPool pool(4);
  long total = 0;
  for (int rep = 0; rep < 20000; ++rep) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 2 + static_cast<size_t>(rep % 7),
                      [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
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
