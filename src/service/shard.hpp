// One shard of the sharded solve service: a self-contained serving pipeline
// over a slice of the fingerprint space.
//
// The front end (service/solve_service.hpp) canonicalizes and fingerprints
// every request at submission and routes it with core/fingerprint
// shard_index — so each ServiceShard owns, privately and without cross-shard
// locks:
//
//  * a BOUNDED QUEUE (capacity = total / shards) with its own workers;
//  * a RESULT-CACHE slice (capacity = total / shards): a fingerprint only
//    ever probes one shard, so the slices partition the key space
//    exhaustively — aggregate hit behavior matches the unsharded cache;
//  * an IN-FLIGHT map (single-flight): concurrent duplicates of a
//    fingerprint always land on the same shard, so per-shard maps lose no
//    matches;
//  * a CIRCUIT BREAKER over its own full-fidelity traffic, and the tiered
//    shed state (pressure is measured against THIS shard's queue).
//
// submit() runs on the submitting thread and makes each request, in one
// step under the in-flight lock, a cache hit, a follower of its in-flight
// leader (no queue slot, tenant slot, tier or breaker verdict), or a queued
// request — its fingerprint's leader when coalescing is on. Workers run
// only queued requests: tier, solve, breaker verdict, cache store, and
// delivery to followers. tests/service_shard_equivalence_test.cpp holds
// N-shard responses byte-identical to the 1-shard service.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/breaker.hpp"
#include "core/fingerprint.hpp"
#include "parallel/bounded_queue.hpp"
#include "parallel/executor_lanes.hpp"
#include "service/result_cache.hpp"
#include "service/service_types.hpp"
#include "service/solve_future.hpp"
#include "util/deadline.hpp"

namespace pcmax {

class ServiceShard {
 public:
  /// One queued request. Built by the front end at submission: the
  /// canonical twin, request fingerprint, and effective epsilon are
  /// computed ONCE there (they are needed for routing anyway), so shard
  /// workers never re-canonicalize.
  struct Pending {
    explicit Pending(SolveRequest r) : request(std::move(r)) {}

    SolveRequest request;
    SolvePromise promise;
    std::uint64_t id = 0;
    std::uint64_t enqueue_ns = 0;
    CancellationToken token;  ///< request cancel + admission-time deadline
    Deadline deadline;        ///< the admission-time deadline itself
    double epsilon = 0.0;     ///< effective epsilon (request or default)
    /// Canonical twin (not default-constructible, hence optional; always
    /// engaged once submitted).
    std::optional<CanonicalInstance> canonical;
    Fingerprint key;          ///< request fingerprint (routing + dedup)
    std::string cache_note;   ///< admission probe: "miss", "disabled", ...
    bool leader = false;      ///< registered in the in-flight map
  };

  /// `queue_capacity` / `cache_capacity` are this shard's slice of the
  /// service-wide options. `lanes` is the SHARED executor-lane set (owned by
  /// the front end, outlives every shard). `reserve_tenant` takes one global
  /// tenant-quota slot for a request about to queue (false = over quota);
  /// `release_tenant` returns it at pop or queue refusal. `workers` threads
  /// start immediately; if the OS refuses one, the started ones are joined
  /// and ResourceLimitError is thrown.
  ServiceShard(int index, const ServiceOptions& options,
               std::size_t queue_capacity, std::size_t cache_capacity,
               unsigned workers, ExecutorLanes* lanes,
               std::function<bool(const std::string&)> reserve_tenant,
               std::function<void(const std::string&)> release_tenant);

  /// Joins if the front end has not already: close() + join() are
  /// idempotent.
  ~ServiceShard();

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Closes admission to this shard's queue; queued requests still drain.
  void close();
  /// Joins the shard's workers (after close()).
  void join();

  /// Admits one routed request on the submitting thread (fault sites
  /// "service.shard.dispatch", then "service.cache"): a cache hit, answered
  /// here; a follower of its in-flight leader; a structured shed (dispatch
  /// fault, tenant quota, tiered full queue); or a queued request. Static
  /// policy: blocks while the queue is full; throws Error once it is closed.
  /// A leader refused at the queue hands its followers the same outcome.
  void submit(Pending pending);

  [[nodiscard]] ShardStats stats() const;
  [[nodiscard]] const CircuitBreaker& breaker() const { return *breaker_; }

 private:
  /// The solver rung a request is admitted to.
  enum class Tier { kFull, kLite, kHeuristic };

  /// Puts an admitted request on the queue (blocking or shedding by
  /// policy); a refused leader hands its followers the same outcome.
  void enqueue(Pending pending);
  /// Removes `key` from the in-flight map and returns its followers.
  [[nodiscard]] std::vector<Pending> take_followers(const Fingerprint& key);
  void worker_loop();
  /// Runs one queued request (or a follower sent back for its own solve).
  void process(Pending pending);
  /// The worker pipeline: admission tier, solve, breaker verdict, cache
  /// store. May throw ResourceLimitError from a fault site.
  [[nodiscard]] SolveResponse handle(Pending& pending);
  /// True when `pending`'s remaining budget is below deadline_near_ms: a
  /// full PTAS started now is doomed, so the request degrades.
  [[nodiscard]] bool deadline_near(const Pending& pending) const;
  /// Runs the tier's solver on a leased lane — always on the CANONICAL
  /// twin, lifting the schedule back through the request's permutation, so
  /// the response is a pure function of (machines, job multiset, epsilon).
  /// `forced_reason` non-empty means the admission layer picked a degraded
  /// tier and names why.
  [[nodiscard]] SolveResponse run_solver(Pending& pending, Tier tier,
                                         const std::string& forced_reason);
  /// Stamps ids/shard/timing, bumps counters/metrics, resolves the promise.
  void finish(Pending& pending, SolveResponse response,
              std::uint64_t dispatch_ns);
  /// A structured reject (no schedule) of the request fingerprinted `key`.
  /// `overload` selects which shed counter is charged (overload vs quota).
  [[nodiscard]] SolveResponse make_shed_response(const Fingerprint& key,
                                                 const std::string& reason,
                                                 bool overload);
  /// An unknown worker exception turned into a structured response
  /// (counter service.internal_errors, note "internal_error").
  [[nodiscard]] SolveResponse internal_error_response(const std::string& what);
  /// Answers the `followers` taken off `leader`'s flight: hands each the
  /// leader's canonical-space `response`, or sends each back for its own
  /// solve when there is no shareable (full-fidelity) result.
  void conclude_leadership(const Pending& leader,
                           std::vector<Pending> followers,
                           const SolveResponse* response);
  [[nodiscard]] const char* solver_key() const {
    return options_.mode == ServiceMode::kPortfolio ? "portfolio" : "ptas";
  }

  const int index_;
  const ServiceOptions options_;
  const std::size_t queue_capacity_;    ///< this shard's slice
  std::unique_ptr<BoundedQueue<Pending>> queue_;
  ExecutorLanes* lanes_;                ///< shared, owned by the front end
  std::unique_ptr<ResultCache> cache_;  ///< null when caching is disabled
  std::unique_ptr<CircuitBreaker> breaker_;
  std::function<bool(const std::string&)> reserve_tenant_;
  std::function<void(const std::string&)> release_tenant_;
  std::vector<std::thread> workers_;
  bool joined_ = false;

  /// Held for the whole admission step; nests the cache and tenant locks.
  std::mutex inflight_mutex_;
  /// Fingerprint of each in-flight leader -> the followers attached to it.
  std::unordered_map<Fingerprint, std::vector<Pending>, FingerprintHasher>
      inflight_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> shed_quota_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
};

}  // namespace pcmax
