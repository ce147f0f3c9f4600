#include "parallel/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/error.hpp"

namespace pcmax {
namespace {

void check_covers_once(Executor& executor, std::size_t n) {
  std::vector<std::atomic<int>> visits(n);
  executor.parallel_for(n, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1);
}

TEST(SequentialExecutor, RunsInline) {
  SequentialExecutor executor;
  EXPECT_EQ(executor.concurrency(), 1u);
  EXPECT_EQ(executor.name(), "sequential");
  check_covers_once(executor, 100);
}

TEST(SequentialExecutor, PassesFullRangeToBody) {
  SequentialExecutor executor;
  int calls = 0;
  executor.parallel_for_ranges(
      10,
      [&](std::size_t begin, std::size_t end, unsigned worker) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        EXPECT_EQ(worker, 0u);
        ++calls;
      },
      LoopSchedule::kStatic, 1, CancellationToken{});
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolExecutor, CoversRangeForAllSchedules) {
  WorkStealingExecutor executor(4);
  EXPECT_EQ(executor.concurrency(), 4u);
  EXPECT_EQ(executor.name(), "workstealing");
  for (auto schedule : {LoopSchedule::kStatic, LoopSchedule::kRoundRobin,
                        LoopSchedule::kDynamic}) {
    std::vector<std::atomic<int>> visits(333);
    executor.parallel_for_ranges(
        visits.size(),
        [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t i = begin; i < end; ++i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
          }
        },
        schedule, 7, CancellationToken{});
    for (std::size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "schedule broke at " << i;
    }
  }
}

TEST(MakeExecutor, CreatesKnownBackends) {
  EXPECT_EQ(make_executor("sequential", 1)->name(), "sequential");
  EXPECT_EQ(make_executor("workstealing", 3)->concurrency(), 3u);
}

TEST(MakeExecutor, RejectsBadArguments) {
  EXPECT_THROW((void)make_executor("bogus", 1), InvalidArgumentError);
  EXPECT_THROW((void)make_executor("workstealing", 0), InvalidArgumentError);
  EXPECT_THROW((void)make_executor("sequential", 2), InvalidArgumentError);
  EXPECT_THROW(WorkStealingPool(0), InvalidArgumentError);
}

TEST(Executor, ParallelSumEquivalenceAcrossBackends) {
  constexpr std::size_t kN = 10'000;
  auto sum_with = [&](Executor& ex) {
    std::atomic<long> sum{0};
    ex.parallel_for(kN, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    return sum.load();
  };
  SequentialExecutor seq;
  WorkStealingExecutor pool(4);
  EXPECT_EQ(sum_with(pool), sum_with(seq));
}

}  // namespace
}  // namespace pcmax
