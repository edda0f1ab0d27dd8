// Unit tests for cli::parallel_map — the sweep layer's fan-out primitive
// (built on support::ThreadPool; no ad-hoc std::async batches) — and for
// the pool itself.
//
// The contracts every sweep relies on: results land in INDEX order no matter
// how the pool schedules the work, and an exception thrown by any unit of
// work propagates to the caller instead of vanishing into a worker.
#include "cli/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace ulba::cli {
namespace {

TEST(ParallelMap, ResultsAreInIndexOrder) {
  constexpr std::size_t kN = 257;  // more work items than any pool has threads
  const auto out = parallel_map(kN, [](std::size_t i) {
    return static_cast<std::int64_t>(i * i);
  });
  ASSERT_EQ(out.size(), kN);
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i)) << "index " << i;
}

TEST(ParallelMap, OrderHoldsUnderImbalancedWork) {
  // Early indices sleep, late indices finish first — ordering must still be
  // by index, not by completion.
  const auto out = parallel_map(16, [](std::size_t i) {
    if (i < 4)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::to_string(i);
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], std::to_string(i));
}

TEST(ParallelMap, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_map(64,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("unit 37 failed");
                     return i;
                   }),
      std::runtime_error);
}

TEST(ParallelMap, FirstExceptionWinsAndCarriesItsMessage) {
  try {
    (void)parallel_map(8, [](std::size_t i) -> int {
      throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected parallel_map to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
  }
}

TEST(ParallelMap, PoolSurvivesAnExceptionAndIsReusable) {
  support::ThreadPool pool(4);
  EXPECT_THROW(parallel_map(pool, 32,
                            [](std::size_t) -> int {
                              throw std::invalid_argument("die");
                            }),
               std::invalid_argument);
  // The same pool must serve subsequent maps untouched.
  const auto out = parallel_map(pool, 32, [](std::size_t i) { return i + 1; });
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ParallelMap, SharedPoolOverloadRunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  const auto out = parallel_map(pool, hits.size(), [&](std::size_t i) {
    ++hits[i];
    return static_cast<int>(i);
  });
  ASSERT_EQ(out.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelMap, HandlesEmptyAndSingleElementRanges) {
  const auto none = parallel_map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(none.empty());
  const auto one = parallel_map(1, [](std::size_t i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41u);
}

TEST(ParallelMap, SerialPoolOfOneMatchesParallelResults) {
  support::ThreadPool serial(1), wide(8);
  const auto fn = [](std::size_t i) { return 3.5 * static_cast<double>(i); };
  EXPECT_EQ(parallel_map(serial, 50, fn), parallel_map(wide, 50, fn));
}

// ---------------------------------------------------------------------------
// The pool itself
// ---------------------------------------------------------------------------
TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  support::ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SerialPoolRunsInlineOnTheCallingThread) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, PropagatesTheFirstException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SurvivesManyConsecutiveJobs) {
  support::ThreadPool pool(3);
  for (int job = 0; job < 200; ++job) {
    std::atomic<int> ran{0};
    pool.parallel_for(7, [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 7) << "job " << job;
  }
}

}  // namespace
}  // namespace ulba::cli
