#include "parallel/executor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pcmax {

const char* loop_schedule_name(LoopSchedule schedule) {
  switch (schedule) {
    case LoopSchedule::kStatic: return "static";
    case LoopSchedule::kRoundRobin: return "round-robin";
    case LoopSchedule::kDynamic: return "dynamic";
  }
  throw InvalidArgumentError("unknown loop schedule");
}

void Executor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                            LoopSchedule schedule, const CancellationToken& cancel) {
  parallel_for_ranges(
      n,
      [&fn](std::size_t begin, std::size_t end, unsigned /*worker*/) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      schedule, /*chunk=*/1, cancel);
}

void SequentialExecutor::parallel_for_ranges(std::size_t n,
                                             const RangeBody& body,
                                             LoopSchedule /*schedule*/,
                                             std::size_t /*chunk*/,
                                             const CancellationToken& cancel) {
  if (n == 0) return;
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  body(0, n, 0);
}

WorkStealingExecutor::WorkStealingExecutor(unsigned num_threads)
    : pool_(num_threads) {}

void WorkStealingExecutor::parallel_for_ranges(std::size_t n,
                                               const RangeBody& body,
                                               LoopSchedule schedule,
                                               std::size_t chunk,
                                               const CancellationToken& cancel) {
  switch (schedule) {
    case LoopSchedule::kStatic:
      pool_.parallel_for_1d(n, body, /*chunk=*/0, cancel);
      break;
    case LoopSchedule::kRoundRobin:
      pool_.parallel_for_1d(n, body, /*chunk=*/1, cancel);
      break;
    case LoopSchedule::kDynamic:
      pool_.parallel_for_1d(n, body, std::max<std::size_t>(1, chunk), cancel);
      break;
  }
}

std::unique_ptr<Executor> make_executor(const std::string& backend,
                                        unsigned num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "executor needs at least one thread");
  if (backend == "sequential") {
    PCMAX_REQUIRE(num_threads == 1, "sequential executor is single-threaded");
    return std::make_unique<SequentialExecutor>();
  }
  if (backend == "workstealing") {
    return std::make_unique<WorkStealingExecutor>(num_threads);
  }
  throw InvalidArgumentError("unknown executor backend: " + backend);
}

}  // namespace pcmax
