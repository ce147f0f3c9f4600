// Sharded, asynchronous batch solve service: admission-controlled,
// deduplicating, degradation-aware, overload-hardened front end over the
// solver stack.
//
// One-instance-at-a-time Solver::solve() makes every caller pay full PTAS
// cost, even for a request someone else just solved, and gives concurrent
// callers nothing to share. SolveService turns the library into a serving
// tier. Since PR 9 that tier is SHARDED and FULLY ASYNCHRONOUS:
//
//  * every request is CANONICALIZED and FINGERPRINTED at submission
//    (core/fingerprint): permuted duplicates share one 128-bit key, and
//    shard_index(key, N) ROUTES the request to one of N INDEPENDENT SHARDS
//    (service/shard.hpp). Each shard owns its own bounded queue, workers,
//    result-cache slice, coalescing map, circuit breaker, and tiered shed
//    state — there is no cross-shard lock on the serving path, so shards
//    scale throughput with cores. Duplicates always land on one shard, so
//    per-shard caches and coalescing maps lose no matches, and responses
//    stay byte-identical to the 1-shard (PR 7) service
//    (tests/service_shard_equivalence_test.cpp);
//  * submit_async returns a SolveFuture (service/solve_future.hpp):
//    value-or-structured-shed, then() continuations that run exactly once,
//    and deadline-aware get_within_ms that answers "shed:deadline" instead
//    of hanging. submit is a thin wrapper returning the same future;
//  * within a shard, SINGLE-FLIGHT runs at submission: one step probes the
//    LRU RESULT CACHE (hits lift the cached canonical schedule through the
//    request's own sort permutation — a response is a pure function of
//    machines + job multiset + epsilon), attaches a CONCURRENT DUPLICATE
//    to its in-flight leader, or queues the request — so neither a hit nor
//    a duplicate ever holds a queue slot. PER-TENANT WEIGHTED QUOTAS are
//    enforced GLOBALLY (across shards) in that step. At dispatch the
//    ADMISSION layer degrades per request (full -> lite -> heuristic ->
//    structured shed) from a pressure signal over the shard's queue depth,
//    deadline headroom and breaker state; a CIRCUIT BREAKER per shard skips
//    a rung that keeps failing;
//  * solver parallelism comes from a SHARED set of persistent executor
//    lanes (parallel/executor_lanes) spanning all shards: per-request
//    parallelism is capped at the lane width, so one big PTAS solve can
//    never starve small requests, and no threads are spawned per request.
//
// Worker-thread errors: resource-shaped ones degrade (and if even the
// degraded rung trips, the request is shed with provenance, never dropped);
// typed pcmax errors (InvalidArgumentError, InternalError) are delivered
// through the request's future — the service never converts bugs into
// results; UNKNOWN exceptions become a structured internal-error response
// (counter service.internal_errors, note "internal_error") so one buggy
// solver path cannot silently kill a worker or hang a future.
//
// Results that DEGRADED are never cached: a cache must only ever serve the
// full-fidelity answer for a key. Fault sites "service.shard.dispatch"
// (routing), "service.request", "service.cache", "breaker.allow", and
// "service.future" (delivery) let tests trip any path deterministically;
// the chaos harness (ChaosInjector) storms all of them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/breaker.hpp"
#include "parallel/executor_lanes.hpp"
#include "service/service_types.hpp"
#include "service/shard.hpp"
#include "service/solve_future.hpp"

namespace pcmax {

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});

  /// Closes admission, drains every queued request on every shard (all
  /// futures resolve), and joins the workers.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits one request and returns its SolveFuture. Routing (canonical
  /// form, fingerprint, shard) happens here, on the caller's thread, and so
  /// does the answer to a request whose result is already cached: the
  /// future comes back resolved. A duplicate of a request in flight attaches
  /// to it. Any other request takes a queue slot: under the static policy,
  /// submission blocks while the destination shard's queue is full
  /// (backpressure); under the tiered policy, the future resolves
  /// immediately with a structured shed response instead. Tenant-quota
  /// rejects resolve the same way under either policy. Throws Error once
  /// the service is shutting down.
  [[nodiscard]] SolveFuture submit_async(SolveRequest request);

  /// Incremental fast path: submits a request whose canonical form (and
  /// therefore fingerprint) the caller already holds, skipping the
  /// per-request sort + rehash that submit_async pays. IncrementalSession
  /// (service/incremental.hpp) maintains the canonical form across
  /// add/remove-job deltas and re-solves through this entry point. The
  /// canonical form must describe `request.instance` (cheap invariants are
  /// checked; the multiset equality is the caller's contract — a lying
  /// canonical form would poison the cache for its fingerprint).
  [[nodiscard]] SolveFuture submit_prepared(SolveRequest request,
                                            CanonicalInstance canonical);

  /// Thin wrapper over submit_async, kept for the PR 4-7 call shape:
  /// `service.submit(r).get()`. Identical semantics (the returned
  /// SolveFuture blocks only when the caller asks it to).
  [[nodiscard]] SolveFuture submit(SolveRequest request) {
    return submit_async(std::move(request));
  }

  /// Submits a whole batch and waits for every response. Responses are
  /// returned in request order. Exceptions from individual requests
  /// propagate when their response is collected.
  std::vector<SolveResponse> solve_batch(std::vector<SolveRequest> requests);

  /// Aggregated over every shard (sums; queue_high_watermark is the max),
  /// with the per-shard breakdown in `.shards`.
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// Shard 0's breaker (with the default shards = 1, THE breaker) — for
  /// tests and reports.
  [[nodiscard]] const CircuitBreaker& breaker() const {
    return shards_[0]->breaker();
  }
  /// Shard `index`'s breaker.
  [[nodiscard]] const CircuitBreaker& breaker(std::size_t index) const {
    return shards_[index]->breaker();
  }
  /// Number of shards actually running.
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The shard submit_async would route this fingerprint to.
  [[nodiscard]] std::size_t shard_of(const Fingerprint& key) const {
    return shard_index(key, shards_.size());
  }

 private:
  /// Takes a capped tenant's queue slot; false when it holds its share.
  /// Passed to every shard, which calls it in its admission step.
  [[nodiscard]] bool reserve_tenant_slot(const std::string& tenant);
  /// Returns a capped tenant's queue slot (no-op for uncapped tenants).
  /// Passed to every shard; shard workers call it at pop.
  void release_tenant_slot(const std::string& tenant);
  [[nodiscard]] double effective_epsilon(const SolveRequest& request) const;
  /// Shared submission head: id, deadline/token, effective epsilon.
  [[nodiscard]] ServiceShard::Pending make_pending(SolveRequest request);
  /// Shared submission tail: fingerprint, shard routing, then the shard's
  /// admission step. `pending.canonical` must already be set.
  [[nodiscard]] SolveFuture route_and_enqueue(ServiceShard::Pending pending);

  ServiceOptions options_;
  std::unique_ptr<ExecutorLanes> lanes_;  ///< shared by all shards
  std::vector<std::unique_ptr<ServiceShard>> shards_;

  std::mutex tenant_mutex_;
  std::map<std::string, std::size_t> tenant_queued_;
  std::map<std::string, std::size_t> tenant_caps_;  // immutable after ctor

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<bool> shutting_down_{false};
};

}  // namespace pcmax
