// Contract tests of the library's thread pool, WorkStealingPool: range
// coverage under every LoopSchedule (through WorkStealingExecutor, which
// maps a schedule onto the pool's claim granularity), exception
// propagation, repeated and concurrent episodes.
#include "parallel/work_stealing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/executor.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

/// Runs `n` iterations and asserts each index is visited exactly once.
void check_exactly_once(WorkStealingExecutor& executor, std::size_t n,
                        LoopSchedule schedule, std::size_t chunk = 1) {
  std::vector<std::atomic<int>> visits(n);
  executor.parallel_for_ranges(
      n,
      [&](std::size_t begin, std::size_t end, unsigned worker) {
        EXPECT_LT(worker, executor.concurrency());
        for (std::size_t i = begin; i < end; ++i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      schedule, chunk, CancellationToken{});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(WorkStealingPool(0), InvalidArgumentError);
}

TEST(ThreadPool, StaticScheduleCoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    WorkStealingExecutor executor(threads);
    for (std::size_t n : {0u, 1u, 5u, 64u, 1000u}) {
      check_exactly_once(executor, n, LoopSchedule::kStatic);
    }
  }
}

TEST(ThreadPool, RoundRobinScheduleCoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 3u, 8u}) {
    WorkStealingExecutor executor(threads);
    for (std::size_t n : {1u, 2u, 17u, 256u}) {
      check_exactly_once(executor, n, LoopSchedule::kRoundRobin);
    }
  }
}

TEST(ThreadPool, DynamicScheduleCoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 2u, 5u}) {
    WorkStealingExecutor executor(threads);
    for (std::size_t chunk : {1u, 3u, 100u}) {
      check_exactly_once(executor, 97, LoopSchedule::kDynamic, chunk);
    }
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  WorkStealingExecutor executor(4);
  EXPECT_THROW(executor.parallel_for_ranges(
                   100,
                   [](std::size_t begin, std::size_t, unsigned) {
                     if (begin == 42) throw std::runtime_error("boom");
                   },
                   LoopSchedule::kRoundRobin, 1, CancellationToken{}),
               std::runtime_error);
  // The pool stays usable after an exception.
  check_exactly_once(executor, 50, LoopSchedule::kStatic);
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  WorkStealingPool pool(2);
  bool called = false;
  pool.parallel_for_1d(0, [&](std::size_t, std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ManyConsecutiveRegionsAccumulateCorrectly) {
  WorkStealingPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for_1d(64, [&](std::size_t begin, std::size_t end, unsigned) {
      total.fetch_add(static_cast<long>(end - begin), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200L * 64);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  constexpr std::size_t kN = 100'000;
  std::vector<long> values(kN);
  std::iota(values.begin(), values.end(), 1);
  WorkStealingPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for_1d(kN, [&](std::size_t begin, std::size_t end, unsigned) {
    long local = 0;
    for (std::size_t i = begin; i < end; ++i) local += values[i];
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long>(kN) * (kN + 1) / 2);
}

TEST(ThreadPool, ConcurrentExternalCallersAreSerialised) {
  // Several external threads submit episodes to one pool at once; every
  // episode must still cover its range exactly once (episodes are
  // serialised internally, never interleaved).
  WorkStealingPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRegionsPerCaller = 25;
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRegionsPerCaller; ++r) {
        pool.parallel_for_1d(100, [&](std::size_t begin, std::size_t end, unsigned) {
          total.fetch_add(static_cast<long>(end - begin),
                          std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), kCallers * kRegionsPerCaller * 100L);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(WorkStealingPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace pcmax
