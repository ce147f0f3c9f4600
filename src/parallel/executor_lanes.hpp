// A shared, capacity-bounded pool of executors ("lanes").
//
// The solve service runs many PTAS solves concurrently, but creating a
// thread pool per request would pay thread spawn/join on every solve, and an
// uncapped per-request pool would let one big solve oversubscribe the
// machine and starve small requests. ExecutorLanes fixes both: a fixed set
// of persistent executors, each `lane_width` threads wide, shared by all
// requests. A request acquires a lane (blocking while all lanes are busy —
// a second layer of admission control under the request queue), runs its
// parallel regions on it, and returns it on scope exit. Per-request
// parallelism is therefore hard-capped at lane_width, and total solver
// parallelism at lanes * lane_width, no matter how large a request is.
//
// Every lane is a WorkStealingExecutor, so the bucketed DP sweep of a solve
// running on a lane spreads its chunk graph over the lane's pool.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "parallel/executor.hpp"

namespace pcmax {

class ExecutorLanes {
 public:
  /// Creates `lanes` persistent executors of `lane_width` threads each
  /// (both >= 1). A lane of width 1 degenerates to inline execution.
  ExecutorLanes(unsigned lanes, unsigned lane_width);

  ExecutorLanes(const ExecutorLanes&) = delete;
  ExecutorLanes& operator=(const ExecutorLanes&) = delete;

  /// RAII lease of one lane; returns it to the free list on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : owner_(other.owner_), index_(other.index_) {
      other.owner_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    /// The leased executor; valid for the lease's lifetime.
    [[nodiscard]] Executor& executor() const;

   private:
    friend class ExecutorLanes;
    Lease(ExecutorLanes* owner, std::size_t index)
        : owner_(owner), index_(index) {}

    ExecutorLanes* owner_;
    std::size_t index_;
  };

  /// Blocks until a lane is free and leases it.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] unsigned lanes() const {
    return static_cast<unsigned>(executors_.size());
  }
  [[nodiscard]] unsigned lane_width() const { return lane_width_; }

 private:
  void release(std::size_t index);

  const unsigned lane_width_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::mutex mutex_;
  std::condition_variable lane_free_;
  std::vector<std::size_t> free_;  // indices of free lanes (LIFO for warmth)
};

}  // namespace pcmax
