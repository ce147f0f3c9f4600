// Executor: the abstraction algorithms program against for parallelism.
//
// The parallel PTAS expresses its level sweep as `parallel_for` calls; the
// concrete executor decides how (and whether) iterations run concurrently:
//
//  * SequentialExecutor — inline execution; used by the sequential PTAS and
//    as the P=1 baseline of all speedup experiments.
//  * WorkStealingExecutor — the library's thread pool (src/parallel/
//    work_stealing): per-worker atomic range shards with slice stealing,
//    plus the task-graph substrate the barrier-free DP sweep
//    (DpSyncMode::kCounters) runs on.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "parallel/work_stealing.hpp"

namespace pcmax {

/// How a parallel range is claimed by the work-stealing pool. Every value
/// covers each iteration exactly once; idle workers steal unclaimed slices
/// from loaded peers in all three.
enum class LoopSchedule {
  /// Auto chunk: about 8 contiguous claims per worker.
  kStatic,
  /// Single-iteration claims: the finest granularity, the paper's
  /// round-robin "parallel for" (Section III) without its fixed strides.
  kRoundRobin,
  /// Claims of `chunk` consecutive iterations.
  kDynamic,
};

/// Stable lowercase name ("static", "round-robin", "dynamic") for reports
/// and metrics records.
const char* loop_schedule_name(LoopSchedule schedule);

/// Interface for running data-parallel ranges.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Degree of parallelism this executor targets (>= 1).
  [[nodiscard]] virtual unsigned concurrency() const = 0;

  /// Short backend name for reports ("sequential", "workstealing").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs `body(begin, end, worker)` over [0, n), blocking until complete.
  /// Workers are numbered [0, concurrency()).
  ///
  /// A valid, cancelled `cancel` token makes the executor stop dispatching
  /// remaining ranges, join cleanly, and rethrow the token's typed error
  /// (DeadlineExceededError / CancelledError). The default-constructed token
  /// disables the checks. The default argument lives on the base declaration
  /// only; call through `Executor` when relying on it.
  virtual void parallel_for_ranges(std::size_t n, const RangeBody& body,
                                   LoopSchedule schedule, std::size_t chunk,
                                   const CancellationToken& cancel = {}) = 0;

  /// Convenience: runs `fn(i)` for each i in [0, n) with a static schedule.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    LoopSchedule schedule = LoopSchedule::kStatic,
                    const CancellationToken& cancel = {});
};

/// Inline, single-threaded executor.
class SequentialExecutor final : public Executor {
 public:
  [[nodiscard]] unsigned concurrency() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "sequential"; }
  void parallel_for_ranges(std::size_t n, const RangeBody& body,
                           LoopSchedule schedule, std::size_t chunk,
                           const CancellationToken& cancel) override;
};

/// Executor backed by the work-stealing pool; LoopSchedule documents how
/// each schedule maps onto the pool's claim granularity.
class WorkStealingExecutor final : public Executor {
 public:
  /// Creates the executor with its own pool of `num_threads` workers.
  explicit WorkStealingExecutor(unsigned num_threads);

  [[nodiscard]] unsigned concurrency() const override { return pool_.size(); }
  [[nodiscard]] std::string name() const override { return "workstealing"; }
  void parallel_for_ranges(std::size_t n, const RangeBody& body,
                           LoopSchedule schedule, std::size_t chunk,
                           const CancellationToken& cancel) override;

  /// Direct access to the underlying pool (task-graph episodes, SPMD).
  [[nodiscard]] WorkStealingPool& pool() { return pool_; }

 private:
  WorkStealingPool pool_;
};

/// Creates an executor by backend name: "sequential" (num_threads must be
/// 1) or "workstealing". Throws InvalidArgumentError for unknown names.
std::unique_ptr<Executor> make_executor(const std::string& backend,
                                        unsigned num_threads);

}  // namespace pcmax
