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
//  * a COALESCING map: concurrent duplicates of a fingerprint always land
//    on the same shard, so per-shard maps lose no matches;
//  * a CIRCUIT BREAKER over its own full-fidelity traffic, and the tiered
//    shed state (pressure is measured against THIS shard's queue).
//
// The pipeline (admission tiers, cache probe, coalescing leadership, solver
// dispatch, breaker verdicts, structured sheds) is the PR 7 single-queue
// pipeline verbatim, plus a cache probe at admission — a 1-shard service
// IS the PR 7 service, and tests/service_shard_equivalence_test.cpp holds
// N-shard responses byte-identical to it.
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
    int shard = 0;            ///< destination shard index
  };

  /// `queue_capacity` / `cache_capacity` / `saturation_watermark` are this
  /// shard's slice of the service-wide options. `lanes` is the SHARED
  /// executor-lane set (owned by the front end, outlives every shard).
  /// `release_tenant` returns one global tenant-quota slot; called when a
  /// worker pops a request (coalescing re-dispatch cannot double-free).
  /// `workers` threads start immediately; if the OS refuses one, the
  /// started ones are joined and ResourceLimitError is thrown.
  ServiceShard(int index, const ServiceOptions& options,
               std::size_t queue_capacity, std::size_t cache_capacity,
               std::size_t saturation_watermark, unsigned workers,
               ExecutorLanes* lanes,
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

  /// Admission-time cache probe, run on the submitting thread: a request
  /// whose result is cached is answered here (and true returned), so it
  /// never waits for a queue slot behind solves. Fires no fault site and
  /// leaves a miss uncounted — the dispatch-time probe, which stays for
  /// duplicates that arrive before their leader is cached, counts it.
  [[nodiscard]] bool answer_from_cache(Pending& pending);

  /// Static-policy enqueue: blocks while the queue is full; false once
  /// closed.
  [[nodiscard]] bool push_blocking(Pending pending);
  /// Tiered-policy enqueue: returns the rejected request when the queue is
  /// full or closed (the caller sheds it), nullopt on success.
  [[nodiscard]] std::optional<Pending> try_push(Pending pending);

  /// Stamps ids/shard/timing, bumps counters/metrics, resolves the promise.
  /// Public so front-end rejects (quota, queue-full, dispatch fault) are
  /// charged to the shard they were routed to.
  void finish(Pending& pending, SolveResponse response,
              std::uint64_t dispatch_ns);
  /// A structured reject (no schedule). `overload` selects which shed
  /// counter is charged (overload vs tenant quota).
  [[nodiscard]] SolveResponse make_shed_response(const SolveRequest& request,
                                                 const std::string& reason,
                                                 bool overload);

  [[nodiscard]] ShardStats stats() const;
  [[nodiscard]] const CircuitBreaker& breaker() const { return *breaker_; }
  [[nodiscard]] int index() const { return index_; }

 private:
  /// The solver rung a request is admitted to.
  enum class Tier { kFull, kLite, kHeuristic };

  /// Followers parked behind one in-flight full-fidelity solve.
  struct Inflight {
    std::vector<Pending> followers;
  };

  void worker_loop();
  void process(Pending pending);
  /// The full pipeline: cache probe, admission decision, solve, cache
  /// store, coalesced delivery. Returns nullopt when the request was parked
  /// as a coalescing follower (the leader will resolve its promise). May
  /// throw ResourceLimitError from a fault site.
  [[nodiscard]] std::optional<SolveResponse> handle(Pending& pending);
  /// The cached response for `pending`, lifted through its own sort
  /// permutation, or nullopt on a miss (counted only when `count_miss`).
  [[nodiscard]] std::optional<SolveResponse> cached_response(
      const Pending& pending, bool count_miss);
  /// The degraded path: MULTIFIT/LPT + polish, never the PTAS, no caching.
  [[nodiscard]] SolveResponse cheap_solve(Pending& pending,
                                          const std::string& reason);
  /// Runs the tier's solver on a leased lane — always on the CANONICAL
  /// twin, lifting the schedule back through the request's permutation, so
  /// the response is a pure function of (machines, job multiset, epsilon).
  /// `forced_reason` non-empty means the admission layer picked a degraded
  /// tier and names why.
  [[nodiscard]] SolveResponse run_solver(Pending& pending, Tier tier,
                                         const std::string& forced_reason);
  /// An unknown worker exception turned into a structured response
  /// (counter service.internal_errors, note "internal_error").
  [[nodiscard]] SolveResponse internal_error_response(
      const SolveRequest& request, const std::string& what);
  /// Hands the leader's canonical-space result to every parked follower
  /// (or re-dispatches them when there is no shareable result).
  void conclude_leadership(const Fingerprint& key,
                           const CanonicalInstance& canonical,
                           const SolveResponse* response);
  [[nodiscard]] const char* solver_key() const {
    return options_.mode == ServiceMode::kPortfolio ? "portfolio" : "ptas";
  }

  const int index_;
  const ServiceOptions options_;
  const std::size_t queue_capacity_;        ///< this shard's slice
  const std::size_t saturation_watermark_;  ///< this shard's slice
  std::unique_ptr<BoundedQueue<Pending>> queue_;
  ExecutorLanes* lanes_;                    ///< shared, owned by the front end
  std::unique_ptr<ResultCache> cache_;      ///< null when caching is disabled
  std::unique_ptr<CircuitBreaker> breaker_;
  std::function<void(const std::string&)> release_tenant_;
  std::vector<std::thread> workers_;
  bool joined_ = false;

  std::mutex inflight_mutex_;
  std::unordered_map<Fingerprint, Inflight, FingerprintHasher> inflight_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> shed_quota_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
};

}  // namespace pcmax
