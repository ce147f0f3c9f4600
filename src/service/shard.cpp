#include "service/shard.hpp"

#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "core/portfolio.hpp"
#include "core/resilient_solver.hpp"
#include "core/variant.hpp"
#include "obs/metrics.hpp"
#include "parallel/spawn.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

namespace {

double ns_to_seconds(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

void bump(obs::Counter counter) {
  obs::Metrics* metrics = obs::current();
  if (metrics != nullptr) metrics->add(0, counter);
}

/// Outcomes a full-fidelity attempt can report to the breaker.
bool breaker_failure(const std::string& reason) {
  return reason == "deadline" || reason.rfind("resource-limit", 0) == 0;
}

}  // namespace

ServiceShard::ServiceShard(
    int index, const ServiceOptions& options, std::size_t queue_capacity,
    std::size_t cache_capacity, unsigned workers, ExecutorLanes* lanes,
    std::function<bool(const std::string&)> reserve_tenant,
    std::function<void(const std::string&)> release_tenant)
    : index_(index),
      options_(options),
      queue_capacity_(queue_capacity),
      queue_(std::make_unique<BoundedQueue<Pending>>(queue_capacity)),
      lanes_(lanes),
      breaker_(std::make_unique<CircuitBreaker>(options.breaker)),
      reserve_tenant_(std::move(reserve_tenant)),
      release_tenant_(std::move(release_tenant)) {
  if (cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(cache_capacity);
  }
  spawn_threads(
      workers_, 0, workers, "service shard",
      [this](unsigned) { worker_loop(); }, [this] { queue_->close(); });
}

ServiceShard::~ServiceShard() {
  close();
  join();
}

void ServiceShard::close() { queue_->close(); }

void ServiceShard::join() {
  if (joined_) return;
  joined_ = true;
  for (std::thread& worker : workers_) worker.join();
}

void ServiceShard::submit(Pending pending) {
  try {
    fault_hit("service.shard.dispatch");
  } catch (const ResourceLimitError& e) {
    // An injected routing fault must neither lose the request nor leak a
    // slot it never took: answer with a structured shed.
    SolveResponse shed = make_shed_response(
        pending.key, "shed:dispatch-fault", /*overload=*/true);
    shed.notes["dispatch_fault"] = e.what();
    finish(pending, std::move(shed), pending.enqueue_ns);
    return;
  }

  // The one admission step. A leader stores its full-fidelity result in
  // the cache BEFORE it leaves the in-flight map, so under this lock a
  // duplicate finds either the leader or its cached result — never neither
  // — and no fingerprint runs two full-fidelity solves at once.
  pending.cache_note = cache_ != nullptr ? "miss" : "disabled";
  std::optional<CacheEntry> hit;
  bool over_quota = false;
  {
    std::lock_guard lock(inflight_mutex_);
    if (cache_ != nullptr) {
      try {
        fault_hit("service.cache");
        hit = cache_->lookup(pending.key, pending.canonical->instance());
      } catch (const ResourceLimitError& e) {
        // A failing cache must cost a recompute, never availability.
        pending.cache_note = std::string("lookup-bypassed: ") + e.what();
      }
    }
    if (!hit.has_value()) {
      // A request whose budget is already nearly spent will degrade at
      // dispatch: it neither shares nor leads a full-fidelity solve.
      const bool single_flight = options_.coalesce && !deadline_near(pending);
      const auto it =
          single_flight ? inflight_.find(pending.key) : inflight_.end();
      if (it != inflight_.end()) {
        it->second.push_back(std::move(pending));
        return;
      }
      // Tenant quota: a capped tenant may hold only its weighted share of
      // the total queue capacity, counted across shards.
      over_quota = !reserve_tenant_(pending.request.tenant);
      if (!over_quota && single_flight) {
        inflight_.emplace(pending.key, std::vector<Pending>{});
        pending.leader = true;
      }
    }
  }

  if (hit.has_value()) {
    // Lift the canonical-space assignment through THIS request's sort
    // permutation: valid for its job numbering, same makespan.
    SolveResponse response;
    response.fingerprint = pending.key;
    response.cache_hit = true;
    response.makespan = hit->makespan;
    response.algorithm = hit->algorithm;
    response.proven_optimal = hit->proven_optimal;
    response.schedule = pending.canonical->lift(hit->assignment);
    response.schedule.validate(pending.request.instance);
    response.notes["cache"] = "hit";
    finish(pending, std::move(response), pending.enqueue_ns);
    return;
  }
  if (over_quota) {
    finish(pending,
           make_shed_response(pending.key, "shed:tenant-quota",
                              /*overload=*/false),
           pending.enqueue_ns);
    return;
  }
  enqueue(std::move(pending));
}

void ServiceShard::enqueue(Pending pending) {
  if (options_.shed_policy == ShedPolicy::kTiered) {
    // Open-loop admission: a full shard queue sheds instead of blocking the
    // submitter, so the arrival loop stays responsive under a storm.
    std::optional<Pending> rejected = queue_->try_push(std::move(pending));
    if (!rejected.has_value()) return;
    release_tenant_(rejected->request.tenant);
    std::vector<Pending> refused;
    if (rejected->leader) refused = take_followers(rejected->key);
    refused.push_back(std::move(*rejected));
    for (Pending& request : refused) {
      finish(request,
             make_shed_response(request.key, "shed:queue-full",
                                /*overload=*/true),
             request.enqueue_ns);
    }
    return;
  }
  // A refused push destroys the request, so keep what the refusal needs.
  const Fingerprint key = pending.key;
  const bool leader = pending.leader;
  const std::string tenant = pending.request.tenant;
  if (queue_->push(std::move(pending))) return;
  release_tenant_(tenant);
  const Error closed("service is shutting down");
  if (leader) {
    for (Pending& follower : take_followers(key)) {
      follower.promise.set_exception(std::make_exception_ptr(closed));
    }
  }
  throw closed;
}

std::vector<ServiceShard::Pending> ServiceShard::take_followers(
    const Fingerprint& key) {
  std::lock_guard lock(inflight_mutex_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return {};
  std::vector<Pending> followers = std::move(it->second);
  inflight_.erase(it);
  return followers;
}

ShardStats ServiceShard::stats() const {
  ShardStats stats;
  stats.shard = index_;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.cache = cache_->stats();
  stats.breaker = breaker_->totals();
  stats.queue_high_watermark = queue_->high_watermark();
  return stats;
}

void ServiceShard::worker_loop() {
  while (auto pending = queue_->pop()) {
    // The tenant quota counts QUEUED requests; the slot frees at dispatch.
    // Done here (not in process): followers sent back for their own solve
    // never took one.
    release_tenant_(pending->request.tenant);
    process(std::move(*pending));
  }
}

void ServiceShard::process(Pending pending) {
  const std::uint64_t dispatch_ns = obs::monotonic_ns();
  SolveResponse response;
  std::exception_ptr error;
  try {
    try {
      response = handle(pending);
    } catch (const ResourceLimitError& e) {
      // A budget (or injected fault) tripped outside the resilient solver's
      // own rungs: answer with the degraded path (MULTIFIT/LPT + polish,
      // never cached), never with an exception.
      try {
        response = run_solver(pending, Tier::kLite,
                              std::string("resource-limit: ") + e.what());
        response.fingerprint = pending.key;
        response.notes["cache"] = "skipped-degraded";
      } catch (const ResourceLimitError& inner) {
        // Even the degraded rung tripped: shed with provenance rather than
        // drop the request or retry a path that just proved unavailable.
        response = make_shed_response(pending.key, "shed:resource-exhausted",
                                      /*overload=*/true);
        response.notes["resource_limit"] = inner.what();
      }
    }
  } catch (const Error&) {
    // Typed pcmax errors (InvalidArgumentError, InternalError, ...) are
    // bugs or caller errors; deliver them through the future unchanged —
    // the service never converts a bug into a result.
    error = std::current_exception();
  } catch (const std::exception& e) {
    // Unknown exceptions must not kill the worker or hang the future:
    // answer with a structured internal-error response.
    response = internal_error_response(e.what());
  } catch (...) {
    response = internal_error_response("unknown exception");
  }
  // Leadership ends here, after handle() stored the result, whatever the
  // outcome; a thrown error leaves no shareable result. The leader is
  // answered first, so it never waits on its followers' deliveries or
  // re-solves.
  std::vector<Pending> followers;
  if (pending.leader) followers = take_followers(pending.key);
  if (error != nullptr) {
    pending.promise.set_exception(error);
  } else if (followers.empty()) {
    finish(pending, std::move(response), dispatch_ns);
  } else {
    finish(pending, response, dispatch_ns);  // a copy: the followers share it
  }
  if (!followers.empty()) {
    conclude_leadership(pending, std::move(followers),
                        error == nullptr ? &response : nullptr);
  }
}

bool ServiceShard::deadline_near(const Pending& pending) const {
  return pending.deadline.has_limit() &&
         pending.deadline.remaining_seconds() * 1000.0 <
             static_cast<double>(options_.deadline_near_ms);
}

SolveResponse ServiceShard::handle(Pending& pending) {
  fault_hit("service.request");
  const CanonicalInstance& canonical = *pending.canonical;
  const Fingerprint& key = pending.key;

  // Admission decision: map the pressure signal (shard queue depth, deadline
  // headroom, breaker state) onto a solver tier — or shed outright.
  Tier tier = Tier::kFull;
  std::string forced_reason;
  bool breaker_blocked = false;
  // Set once CircuitBreaker::allow (fault site "breaker.allow", may throw)
  // admits this attempt: it then owes exactly one verdict (see on_abandon),
  // or a half-open key wedges with its probe slot held forever.
  bool admitted = false;
  const auto allow = [&] { return admitted = breaker_->allow(solver_key()); };
  const std::size_t depth = queue_->size();
  const bool near = deadline_near(pending);
  if (options_.shed_policy == ShedPolicy::kStatic) {
    // PR 4 semantics: a saturated queue or a nearly-spent deadline sends
    // the request down the cheap path instead of starting a doomed PTAS.
    if (depth >= queue_capacity_) {
      tier = Tier::kLite;
      forced_reason = "queue-saturated";
    } else if (near) {
      tier = Tier::kLite;
      forced_reason = "deadline-near";
    } else if (options_.breaker_enabled && !allow()) {
      breaker_blocked = true;
      tier = Tier::kLite;
      forced_reason = std::string("breaker-open:") + solver_key();
    }
  } else {
    double pressure =
        static_cast<double>(depth) / static_cast<double>(queue_capacity_);
    // A nearly spent budget is weighted at the lite threshold, never less:
    // a full PTAS launched against it is doomed, and its certain "deadline"
    // failure would feed the breaker's streak — a storm of tiny-deadline
    // requests must degrade themselves (as under the static policy), not
    // trip the breaker for everyone else.
    if (near) pressure += options_.lite_pressure;
    // The breaker is only consulted when the request would otherwise take
    // the full-fidelity rung: its reject count mirrors skipped attempts.
    if (options_.breaker_enabled && pressure < options_.lite_pressure &&
        !allow()) {
      breaker_blocked = true;
      pressure += 0.5;
    }
    if (pressure >= options_.shed_pressure) {
      return make_shed_response(key, "shed:pressure", /*overload=*/true);
    }
    if (pressure >= options_.heavy_pressure) {
      tier = Tier::kHeuristic;
      forced_reason = breaker_blocked
                          ? std::string("breaker-open:") + solver_key()
                          : "pressure-heavy";
    } else if (pressure >= options_.lite_pressure || breaker_blocked) {
      tier = Tier::kLite;
      if (breaker_blocked) {
        forced_reason = std::string("breaker-open:") + solver_key();
      } else {
        forced_reason = near ? "deadline-near" : "pressure-lite";
      }
    }
  }

  SolveResponse response;
  try {
    response = run_solver(pending, tier, forced_reason);
  } catch (const ResourceLimitError&) {
    if (admitted) breaker_->on_failure(solver_key());
    throw;
  } catch (...) {
    // A non-resource exception is no verdict on the rung: release the slot.
    if (admitted) breaker_->on_abandon(solver_key());
    throw;
  }
  // "cancelled" is the caller's doing, not the solver's — it must not feed
  // the failure streak, but it must release a probe slot.
  if (admitted) {
    const std::string& reason = response.degradation_reason;
    if (reason == "none") {
      breaker_->on_success(solver_key());
    } else if (breaker_failure(reason)) {
      breaker_->on_failure(solver_key());
    } else {
      breaker_->on_abandon(solver_key());
    }
  }
  if (breaker_blocked) response.notes["breaker"] = "open-rerouted";
  response.fingerprint = key;
  response.notes["cache"] = pending.cache_note;

  // Only full-fidelity results enter the cache: a degraded answer must
  // never be served to a future caller with a healthy budget.
  if (cache_ != nullptr && response.degradation_reason == "none") {
    try {
      fault_hit("service.cache");
      CacheEntry entry{canonical.instance(),
                       canonical.project(response.schedule),
                       response.makespan, response.algorithm,
                       response.proven_optimal};
      cache_->insert(key, std::move(entry));
    } catch (const ResourceLimitError& e) {
      response.notes["cache"] = std::string("store-skipped: ") + e.what();
    }
  }
  return response;
}

void ServiceShard::conclude_leadership(const Pending& leader,
                                       std::vector<Pending> followers,
                                       const SolveResponse* response) {
  // Degraded (or absent) leader results are never shared: a follower with a
  // healthy budget must not inherit a neighbour's degradation.
  if (response == nullptr || response->degradation_reason != "none") {
    for (Pending& follower : followers) process(std::move(follower));
    return;
  }

  // Share the result in CANONICAL space: each follower lifts it through its
  // OWN sort permutation, so its response is exactly what a fresh solve or
  // cache hit of its submitted ordering would have produced.
  const std::vector<int> assignment =
      leader.canonical->project(response->schedule);
  for (Pending& follower : followers) {
    const std::uint64_t delivery_ns = obs::monotonic_ns();
    try {
      SolveResponse shared;
      shared.fingerprint = response->fingerprint;
      shared.makespan = response->makespan;
      shared.algorithm = response->algorithm;
      shared.proven_optimal = response->proven_optimal;
      shared.coalesced = true;
      shared.schedule = follower.canonical->lift(assignment);
      shared.schedule.validate(follower.request.instance);
      shared.notes["cache"] = "coalesced";
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      bump(obs::Counter::kServiceCoalesced);
      finish(follower, std::move(shared), delivery_ns);
    } catch (...) {
      follower.promise.set_exception(std::current_exception());
    }
  }
}

SolveResponse ServiceShard::run_solver(Pending& pending, Tier tier,
                                       const std::string& forced_reason) {
  const CanonicalInstance& canonical = *pending.canonical;
  SolveContext context = SolveContext::with_token(pending.token);

  const ExecutorLanes::Lease lease = lanes_->acquire();
  // Solve the CANONICAL twin, not the submitted ordering. The PTAS maps
  // concrete jobs into rounded value classes in job order, and two jobs in
  // one class have different true times — so its makespan is not
  // permutation-invariant. Solving in canonical space and lifting through
  // the request's sort permutation makes every response a pure function of
  // the problem (machines + job multiset + epsilon), so cache hits, misses
  // and coalesced deliveries for one fingerprint are indistinguishable.
  SolverResult result;
  if (options_.mode == ServiceMode::kPortfolio && tier == Tier::kFull) {
    PortfolioOptions portfolio;
    portfolio.build.epsilon = pending.epsilon;
    portfolio.build.multifit_iterations = options_.multifit_iterations;
    portfolio.build.local_search_rounds = options_.local_search_rounds;
    // Sequential race on this worker: deterministic winner (responses must
    // stay pure functions of the problem for cache coherence), and no
    // competition with other workers for the leased lane.
    portfolio.max_concurrent = 1;
    if (options_.lane_width > 1) {
      // Auto-selection adds the parallel-ptas racer on the leased lane;
      // bit-compatible with the sequential fill, so responses still do not
      // depend on the lane width.
      portfolio.build.executor = &lease.executor();
    }
    PortfolioSolver solver(portfolio);
    // Variant dispatch: capacity-restricted instances are solved on their
    // classic min(m, B)-machine twin and lifted back (core/variant.hpp);
    // classic and incremental instances pass through byte-identically.
    result = solve_variant_with(solver, canonical.instance(), context);
  } else {
    ResilientOptions resilient;
    resilient.ptas.epsilon = pending.epsilon;
    resilient.ptas_enabled = tier == Tier::kFull;
    resilient.multifit_iterations = options_.multifit_iterations;
    // The heuristic tier drops the local-search polish too: MULTIFIT/LPT
    // only, the cheapest rung that still returns a valid schedule.
    resilient.local_search_rounds =
        tier == Tier::kHeuristic ? 0 : options_.local_search_rounds;
    if (options_.lane_width > 1) {
      // Parallel engine on the leased lane; bit-compatible with the
      // sequential bottom-up fill (see tests/ptas_dp_crosscheck_test.cpp),
      // so cache entries and responses do not depend on the lane width.
      resilient.ptas.engine = DpEngine::kParallelBucketed;
      resilient.ptas.executor = &lease.executor();
    }
    ResilientSolver solver(resilient);
    result = solve_variant_with(solver, canonical.instance(), context);
  }

  SolveResponse response;
  response.makespan = result.makespan;
  response.schedule =
      canonical.lift(result.schedule.assignment(canonical.instance()));
  response.algorithm = result.notes["algorithm_used"];
  response.degradation_reason = forced_reason.empty()
                                    ? result.notes["degradation_reason"]
                                    : forced_reason;
  response.degraded = response.degradation_reason != "none";
  response.proven_optimal = result.proven_optimal;
  return response;
}

void ServiceShard::finish(Pending& pending, SolveResponse response,
                          std::uint64_t dispatch_ns) {
  obs::Metrics* metrics = obs::current();
  const std::uint64_t done_ns = obs::monotonic_ns();
  response.id = pending.id;
  response.machines = pending.request.instance.machines();
  response.jobs = pending.request.instance.jobs();
  response.variant = variant_name(pending.request.instance.variant());
  response.tenant = pending.request.tenant;
  response.shard = index_;
  response.queue_seconds = ns_to_seconds(pending.enqueue_ns, dispatch_ns);
  response.solve_seconds = ns_to_seconds(dispatch_ns, done_ns);
  response.seconds = ns_to_seconds(pending.enqueue_ns, done_ns);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (response.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->add(0, obs::Counter::kServiceRequests);
    if (response.degraded) metrics->add(0, obs::Counter::kServiceDegraded);
    metrics->add_timer(obs::Timer::kServiceRequest, done_ns - dispatch_ns);
    metrics->add_span("service.request", 0, pending.enqueue_ns, done_ns);
  }
  pending.promise.set_value(std::move(response));
}

// Shed and internal-error responses keep SolveResponse's one-machine
// placeholder schedule: allocating Schedule(m) for an instance whose m just
// exhausted memory would throw again inside the handler.
SolveResponse ServiceShard::make_shed_response(const Fingerprint& key,
                                               const std::string& reason,
                                               bool overload) {
  SolveResponse response;
  response.fingerprint = key;
  response.algorithm = "none";
  response.degradation_reason = reason;
  response.degraded = true;
  response.shed = true;
  response.notes["shed"] = overload ? "overload" : "tenant-quota";
  if (overload) {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    bump(obs::Counter::kServiceShedOverload);
  } else {
    shed_quota_.fetch_add(1, std::memory_order_relaxed);
    bump(obs::Counter::kServiceShedQuota);
  }
  return response;
}

SolveResponse ServiceShard::internal_error_response(const std::string& what) {
  SolveResponse response;
  response.algorithm = "none";
  response.degradation_reason = "internal-error";
  response.degraded = true;
  response.shed = true;
  response.notes["internal_error"] = what;
  internal_errors_.fetch_add(1, std::memory_order_relaxed);
  bump(obs::Counter::kServiceInternalErrors);
  return response;
}

}  // namespace pcmax
