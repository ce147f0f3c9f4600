// The service's overload layer end to end: tiered load shedding, tenant
// quotas, request coalescing, breaker re-routing, and the structured
// internal-error path — all made deterministic with a gate FaultHandler
// that parks the worker at a chosen fault site while the test arranges the
// queue into the exact pressure state it wants to observe.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "service/solve_service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {
namespace {

/// Blocks the FIRST hit of one site until release(); later hits pass. Lets
/// a test freeze a worker mid-request and build queue pressure behind it.
class GateHandler final : public FaultHandler {
 public:
  explicit GateHandler(const char* site) : site_(site) {}

  void on_hit(const char* site) override {
    if (std::strcmp(site, site_) != 0) return;
    std::unique_lock lock(mutex_);
    if (released_ || blocked_) return;
    blocked_ = true;
    entered_.notify_all();
    gate_.wait(lock, [&] { return released_; });
  }

  void wait_until_blocked() {
    std::unique_lock lock(mutex_);
    entered_.wait(lock, [&] { return blocked_; });
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

 private:
  const char* site_;
  std::mutex mutex_;
  std::condition_variable entered_;
  std::condition_variable gate_;
  bool blocked_ = false;
  bool released_ = false;
};

/// Blocks the FIRST hit of one site until release() (like GateHandler) and
/// throws ResourceLimitError on hits [throw_from, throw_to]; every other
/// hit passes. Lets one test freeze a leader mid-solve AND deterministically
/// fail the requests dispatched behind it.
class GateThenThrowHandler final : public FaultHandler {
 public:
  GateThenThrowHandler(const char* site, std::uint64_t throw_from,
                       std::uint64_t throw_to)
      : site_(site), throw_from_(throw_from), throw_to_(throw_to) {}

  void on_hit(const char* site) override {
    if (std::strcmp(site, site_) != 0) return;
    const std::uint64_t hit =
        hits_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (hit == 1) {
      std::unique_lock lock(mutex_);
      blocked_ = true;
      entered_.notify_all();
      gate_.wait(lock, [&] { return released_; });
      return;
    }
    if (hit >= throw_from_ && hit <= throw_to_) {
      throw ResourceLimitError(resource_limit_message(
          std::string("test fault at '") + site_ + "'", hit - 1, hit));
    }
  }

  void wait_until_blocked() {
    std::unique_lock lock(mutex_);
    entered_.wait(lock, [&] { return blocked_; });
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

 private:
  const char* site_;
  const std::uint64_t throw_from_;
  const std::uint64_t throw_to_;
  std::atomic<std::uint64_t> hits_{0};
  std::mutex mutex_;
  std::condition_variable entered_;
  std::condition_variable gate_;
  bool blocked_ = false;
  bool released_ = false;
};

Instance overload_instance(int seed) {
  return generate_instance(InstanceFamily::kUniform1To100, 3, 12, seed, 0);
}

/// Big enough that the PTAS reliably runs its bisection loop — the gated
/// coalescing tests park the leader at the "bisection.probe" site.
Instance ptas_instance(int seed) {
  return generate_instance(InstanceFamily::kUniform1To100, 5, 30, seed, 0);
}

// One frozen worker, a full queue behind it, then release: each drained
// request sees a deterministic queue depth, so the tiered admission layer
// walks the whole ladder — shed, heuristic, lite, full — in one cascade.
TEST(ServiceOverload, TieredPressureWalksTheWholeLadder) {
  GateHandler gate("service.request");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.shed_policy = ShedPolicy::kTiered;
  options.lite_pressure = 0.5;
  options.heavy_pressure = 0.75;
  options.shed_pressure = 1.0;
  options.breaker_enabled = false;  // isolate the pressure signal
  SolveService service(options);

  std::vector<SolveFuture> futures;
  futures.push_back(service.submit(SolveRequest{overload_instance(1)}));
  gate.wait_until_blocked();  // r0 is out of the queue, frozen in handle()
  for (int seed = 2; seed <= 5; ++seed) {  // r1..r4 fill the queue exactly
    futures.push_back(service.submit(SolveRequest{overload_instance(seed)}));
  }
  // r5 finds the queue full: shed at submit, resolved immediately.
  futures.push_back(service.submit(SolveRequest{overload_instance(6)}));
  SolveResponse overflow = futures.back().get();
  EXPECT_TRUE(overflow.shed);
  EXPECT_EQ(overflow.degradation_reason, "shed:queue-full");
  EXPECT_EQ(overflow.algorithm, "none");

  gate.release();
  std::vector<SolveResponse> responses;
  for (std::size_t i = 0; i + 1 < futures.size(); ++i) {
    responses.push_back(futures[i].get());
  }
  // r0 dispatched against depth 4/4 = 1.0 -> shed; r1 against 3/4 ->
  // heuristic; r2 against 2/4 -> lite; r3, r4 against low pressure -> full.
  EXPECT_EQ(responses[0].degradation_reason, "shed:pressure");
  EXPECT_TRUE(responses[0].shed);
  EXPECT_EQ(responses[1].degradation_reason, "pressure-heavy");
  EXPECT_FALSE(responses[1].shed);
  EXPECT_EQ(responses[2].degradation_reason, "pressure-lite");
  EXPECT_EQ(responses[3].degradation_reason, "none");
  EXPECT_EQ(responses[4].degradation_reason, "none");
  for (const SolveResponse& response : responses) {
    if (!response.shed) EXPECT_GT(response.makespan, 0);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_overload, 2u);  // shed:queue-full + shed:pressure
  EXPECT_EQ(stats.shed_quota, 0u);
  EXPECT_EQ(stats.requests, 6u);
}

// A cache hit is answered at submission: with the only worker frozen and
// its queue full, a cached request still comes back resolved, while a
// fresh one is shed. Each request probes the cache exactly once.
TEST(ServiceOverload, CacheHitIsAnsweredAtAdmissionPastAFullQueue) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.shed_policy = ShedPolicy::kTiered;
  options.breaker_enabled = false;
  SolveService service(options);
  const Instance cached = overload_instance(1);
  const SolveResponse first = service.submit(SolveRequest{cached}).get();
  ASSERT_EQ(first.degradation_reason, "none");

  GateHandler gate("service.request");
  FaultScope scope(gate);
  std::vector<SolveFuture> queued;
  queued.push_back(service.submit(SolveRequest{overload_instance(2)}));
  gate.wait_until_blocked();  // the worker is frozen in handle()
  queued.push_back(service.submit(SolveRequest{overload_instance(3)}));
  queued.push_back(service.submit(SolveRequest{overload_instance(4)}));

  // The same job multiset in another order: same fingerprint, so a hit.
  std::vector<Time> reversed(cached.times().rbegin(), cached.times().rend());
  const Instance permuted(cached.machines(), std::move(reversed));
  SolveFuture hit = service.submit(SolveRequest{permuted});
  const bool ready_at_submit = hit.ready();
  const SolveResponse full =
      service.submit(SolveRequest{overload_instance(5)}).get();
  gate.release();  // before any assertion can end the test early
  for (SolveFuture& future : queued) (void)future.get();

  EXPECT_EQ(full.degradation_reason, "shed:queue-full");
  EXPECT_TRUE(ready_at_submit);
  const SolveResponse response = hit.get();
  EXPECT_TRUE(response.cache_hit);
  EXPECT_FALSE(response.shed) << response.degradation_reason;
  EXPECT_EQ(response.makespan, first.makespan);
  EXPECT_NO_THROW(response.schedule.validate(permuted));
  EXPECT_EQ(response.queue_seconds, 0.0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  // The first solve, the 3 queued and the queue-full shed.
  EXPECT_EQ(stats.cache.misses, 5u);
  EXPECT_EQ(stats.requests, 6u);
}

TEST(ServiceOverload, TenantQuotaShedsOnlyTheCappedTenant) {
  GateHandler gate("service.request");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.tenant_weights = {{"burst", 1}, {"steady", 3}};
  // burst may hold 8*1/4 = 2 queue slots; steady 6; "" stays uncapped.
  SolveService service(options);

  const auto submit = [&](int seed, const std::string& tenant) {
    SolveRequest request{overload_instance(seed)};
    request.tenant = tenant;
    return service.submit(std::move(request));
  };
  std::vector<SolveFuture> kept;
  kept.push_back(submit(1, "burst"));
  gate.wait_until_blocked();  // the first burst request left the queue
  kept.push_back(submit(2, "burst"));
  kept.push_back(submit(3, "burst"));  // burst now holds its 2 slots
  SolveFuture over_quota = submit(4, "burst");
  SolveResponse shed = over_quota.get();  // resolved without queueing
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.degradation_reason, "shed:tenant-quota");
  EXPECT_EQ(shed.tenant, "burst");

  // Other tenants are untouched by burst's quota exhaustion.
  kept.push_back(submit(5, "steady"));
  kept.push_back(submit(6, ""));

  gate.release();
  for (SolveFuture& future : kept) {
    const SolveResponse response = future.get();
    EXPECT_FALSE(response.shed);
    EXPECT_GT(response.makespan, 0);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_quota, 1u);
  EXPECT_EQ(stats.shed_overload, 0u);
}

// Concurrent duplicates of one fingerprint share the leader's in-flight
// solve, and the shared responses are identical to an unloaded solve of
// the same instance.
TEST(ServiceOverload, CoalescingSharesOneInflightSolve) {
  const Instance instance = ptas_instance(7);

  // The canonical answer, from an idle single-worker service.
  SolveResponse canonical_response;
  {
    ServiceOptions options;
    options.workers = 1;
    SolveService service(options);
    canonical_response =
        service.submit(SolveRequest{instance}).get();
    ASSERT_EQ(canonical_response.degradation_reason, "none");
  }

  // Freeze the leader INSIDE its solve: leadership is registered before
  // run_solver, so every duplicate dispatched meanwhile must park.
  GateHandler gate("bisection.probe");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 32;
  SolveService service(options);

  std::vector<SolveFuture> futures;
  futures.push_back(service.submit(SolveRequest{instance}));
  gate.wait_until_blocked();
  constexpr int kFollowers = 7;
  for (int i = 0; i < kFollowers; ++i) {
    futures.push_back(service.submit(SolveRequest{instance}));
  }
  // Every follower probes the cache (miss) exactly once before parking:
  // misses reaching 1 + kFollowers means all of them are parked.
  while (service.stats().cache.misses <
         static_cast<std::uint64_t>(1 + kFollowers)) {
    std::this_thread::yield();
  }
  gate.release();

  int coalesced = 0;
  for (SolveFuture& future : futures) {
    const SolveResponse response = future.get();
    EXPECT_EQ(response.degradation_reason, "none");
    EXPECT_EQ(response.makespan, canonical_response.makespan);
    EXPECT_EQ(response.schedule.assignment(instance),
              canonical_response.schedule.assignment(instance));
    EXPECT_FALSE(response.cache_hit);
    if (response.coalesced) {
      ++coalesced;
      EXPECT_EQ(response.notes.at("cache"), "coalesced");
    }
    response.schedule.validate(instance);
  }
  EXPECT_EQ(coalesced, kFollowers);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
  // One solve, one cache store: misses reflect probes, not extra solves.
  EXPECT_EQ(stats.cache.misses, static_cast<std::uint64_t>(1 + kFollowers));
}

TEST(ServiceOverload, CoalescingOffSolvesEveryDuplicate) {
  const Instance instance = ptas_instance(8);
  GateHandler gate("bisection.probe");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 2;
  options.coalesce = false;
  options.cache_capacity = 0;  // no dedup at all: every request solves
  SolveService service(options);
  std::vector<SolveFuture> futures;
  futures.push_back(service.submit(SolveRequest{instance}));
  gate.wait_until_blocked();
  futures.push_back(service.submit(SolveRequest{instance}));
  gate.release();
  for (SolveFuture& future : futures) {
    const SolveResponse response = future.get();
    EXPECT_FALSE(response.coalesced);
    EXPECT_EQ(response.degradation_reason, "none");
  }
  EXPECT_EQ(service.stats().coalesced, 0u);
}

// An unknown (non-pcmax) exception on the worker becomes a structured
// internal-error response — never a dead worker or a hung future.
TEST(ServiceOverload, UnknownExceptionBecomesStructuredResponse) {
  FaultInjector injector("service.request", /*fire_at=*/1,
                         FaultInjector::Action::kThrowUnknown);
  FaultScope scope(injector);
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const SolveResponse broken =
      service.submit(SolveRequest{overload_instance(9)}).get();
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(broken.degraded);
  EXPECT_TRUE(broken.shed);
  EXPECT_EQ(broken.degradation_reason, "internal-error");
  EXPECT_NE(broken.notes.at("internal_error").find("injected unknown fault"),
            std::string::npos);

  // The worker survived: the next request is served normally.
  const SolveResponse healthy =
      service.submit(SolveRequest{overload_instance(9)}).get();
  EXPECT_EQ(healthy.degradation_reason, "none");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.internal_errors, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

// Typed pcmax errors still propagate through the future: the service must
// not convert caller bugs into results.
TEST(ServiceOverload, TypedErrorsStillPropagateThroughTheFuture) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  SolveRequest request{overload_instance(10)};
  // k = ceil(1/eps) = 100 blows the PTAS accuracy bound (< 64):
  // InvalidArgumentError from the worker thread.
  request.epsilon = 0.01;
  auto future = service.submit(std::move(request));
  EXPECT_THROW((void)future.get(), InvalidArgumentError);
  EXPECT_EQ(service.stats().internal_errors, 0u);
}

// Consecutive resource failures trip the breaker, open-breaker requests
// re-route to the cheap rung up front, and a probe closes it again.
TEST(ServiceOverload, BreakerTripsReroutesAndRecovers) {
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;  // every request must attempt a solve
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 2;
  SolveService service(options);

  const auto degrade_reason = [&](int seed) {
    return service.submit(SolveRequest{ptas_instance(seed)})
        .get()
        .degradation_reason;
  };

  // Two full-fidelity attempts whose PTAS rung blows a resource limit:
  // the ladder degrades each to MULTIFIT/LPT with a "resource-limit: ..."
  // reason, which is exactly what feeds the breaker's failure streak.
  for (int i = 0; i < 2; ++i) {
    FaultInjector injector("bisection.probe", /*fire_at=*/1,
                           FaultInjector::Action::kThrow);
    FaultScope scope(injector);
    const SolveResponse response =
        service.submit(SolveRequest{ptas_instance(20 + i)}).get();
    EXPECT_TRUE(injector.fired());
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degradation_reason.rfind("resource-limit", 0), 0u);
  }
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kOpen);
  EXPECT_GE(service.stats().breaker.trips, 1u);

  // While open, full-fidelity requests are re-routed without an attempt.
  EXPECT_EQ(degrade_reason(30), "breaker-open:ptas");
  EXPECT_EQ(degrade_reason(31), "breaker-open:ptas");
  // Cooldown (2 rejects) served: the next request probes and succeeds.
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);
  EXPECT_EQ(degrade_reason(32), "none");
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
  EXPECT_GE(service.stats().breaker.closes, 1u);
}

// A half-open probe that dies to a NON-resource exception must abandon its
// probe slot, never leak it: a leaked slot makes allow() reject every
// future attempt, disabling the full-fidelity tier forever.
TEST(ServiceOverload, UnknownExceptionDuringProbeReleasesTheSlot) {
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;  // every request must attempt a solve
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 2;
  SolveService service(options);

  // Trip: two resource failures on the PTAS rung.
  for (int i = 0; i < 2; ++i) {
    FaultInjector injector("bisection.probe", /*fire_at=*/1,
                           FaultInjector::Action::kThrow);
    FaultScope scope(injector);
    (void)service.submit(SolveRequest{ptas_instance(40 + i)}).get();
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kOpen);
  // Serve the cooldown: two rerouted requests.
  for (int seed = 42; seed <= 43; ++seed) {
    (void)service.submit(SolveRequest{ptas_instance(seed)}).get();
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);

  // The probe throws an unknown (non-pcmax) exception mid-solve: the
  // request resolves as a structured internal error, and the probe slot is
  // abandoned, not leaked.
  {
    FaultInjector injector("bisection.probe", /*fire_at=*/1,
                           FaultInjector::Action::kThrowUnknown);
    FaultScope scope(injector);
    const SolveResponse broken =
        service.submit(SolveRequest{ptas_instance(44)}).get();
    EXPECT_EQ(broken.degradation_reason, "internal-error");
  }
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);
  EXPECT_GE(service.breaker().stats("ptas").abandons, 1u);

  // The slot is free: the next attempt probes, succeeds, and closes.
  const SolveResponse healthy =
      service.submit(SolveRequest{ptas_instance(45)}).get();
  EXPECT_EQ(healthy.degradation_reason, "none");
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
}

// A duplicate of a frozen leader attaches to it at submission and never
// consults the breaker: while the breaker is half-open, the probe slot goes
// to the next fresh request, which closes it.
TEST(ServiceOverload, DuplicateOfAFrozenLeaderTakesNoProbeSlot) {
  // Hit 1 of bisection.probe freezes the leader mid-solve; hits 2-3 throw,
  // tripping the breaker behind it; later hits pass.
  GateThenThrowHandler handler("bisection.probe", /*throw_from=*/2,
                               /*throw_to=*/3);
  FaultScope scope(handler);
  ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 0;
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 2;
  SolveService service(options);

  // The leader is admitted while the breaker is CLOSED and freezes inside
  // its solve, holding leadership of its fingerprint.
  const Instance shared = ptas_instance(50);
  SolveFuture leader = service.submit(SolveRequest{shared});
  handler.wait_until_blocked();

  // Two resource failures behind it trip the breaker...
  for (int seed = 51; seed <= 52; ++seed) {
    const SolveResponse failed =
        service.submit(SolveRequest{ptas_instance(seed)}).get();
    EXPECT_EQ(failed.degradation_reason.rfind("resource-limit", 0), 0u);
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kOpen);
  // ...and two rerouted requests serve the cooldown.
  for (int seed = 53; seed <= 54; ++seed) {
    EXPECT_EQ(service.submit(SolveRequest{ptas_instance(seed)})
                  .get()
                  .degradation_reason,
              "breaker-open:ptas");
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);

  // The duplicate attaches to the frozen leader when submit returns, with
  // no breaker consultation: no probe taken, none abandoned.
  SolveFuture follower = service.submit(SolveRequest{shared});
  EXPECT_EQ(service.breaker().stats("ptas").probes, 0u);
  EXPECT_EQ(service.breaker().stats("ptas").abandons, 0u);
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);

  // Probe #1 goes to a fresh request, which succeeds and closes the breaker.
  const SolveResponse probe =
      service.submit(SolveRequest{ptas_instance(55)}).get();
  EXPECT_EQ(probe.degradation_reason, "none");
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
  EXPECT_EQ(service.breaker().stats("ptas").probes, 1u);

  handler.release();
  const SolveResponse led = leader.get();
  EXPECT_EQ(led.degradation_reason, "none");
  const SolveResponse shared_result = follower.get();
  EXPECT_TRUE(shared_result.coalesced);
  EXPECT_EQ(shared_result.makespan, led.makespan);
}

// Single-flight happens at submission, so it works at any workers/shards
// ratio: with ONE worker per shard and that worker frozen inside the
// leader's solve, every permuted duplicate attaches to the leader instead
// of queueing behind it (static policy) or being shed by a 1-slot queue
// (tiered policy), and receives the canonical answer for its own ordering.
class SingleFlight : public ::testing::TestWithParam<ShedPolicy> {};

TEST_P(SingleFlight, DuplicatesOfAFrozenLeaderAttachWithoutQueueing) {
  const Instance instance = ptas_instance(9);
  constexpr int kDuplicates = 7;
  // Permutation d rotates the job list by d + 1 places.
  std::vector<Instance> duplicates;
  for (int d = 0; d < kDuplicates; ++d) {
    std::vector<Time> times(instance.times().begin(), instance.times().end());
    std::rotate(times.begin(), times.begin() + d + 1, times.end());
    duplicates.emplace_back(instance.machines(), std::move(times));
  }

  // The canonical answers, from an idle uncached single-worker service.
  std::vector<SolveResponse> canonical;
  {
    ServiceOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    SolveService service(options);
    for (const Instance& duplicate : duplicates) {
      canonical.push_back(service.submit(SolveRequest{duplicate}).get());
      ASSERT_EQ(canonical.back().degradation_reason, "none");
    }
  }

  GateHandler gate("bisection.probe");
  FaultScope scope(gate);
  ServiceOptions options;
  options.shards = 4;
  options.workers = 4;  // one worker per shard
  options.shed_policy = GetParam();
  // Tiered: a 1-slot queue per shard, so nothing attaches by queueing.
  if (GetParam() == ShedPolicy::kTiered) options.queue_capacity = 4;
  SolveService service(options);

  SolveFuture leader = service.submit(SolveRequest{instance});
  gate.wait_until_blocked();  // the shard's only worker is frozen
  std::vector<SolveFuture> futures;
  for (const Instance& duplicate : duplicates) {
    futures.push_back(service.submit(SolveRequest{duplicate}));
  }
  gate.release();

  EXPECT_EQ(leader.get().degradation_reason, "none");
  for (int d = 0; d < kDuplicates; ++d) {
    const SolveResponse response = futures[static_cast<std::size_t>(d)].get();
    const SolveResponse& expected = canonical[static_cast<std::size_t>(d)];
    EXPECT_TRUE(response.coalesced) << d << ": " << response.degradation_reason;
    EXPECT_EQ(response.degradation_reason, "none") << d;
    EXPECT_EQ(response.makespan, expected.makespan) << d;
    const Instance& ordering = duplicates[static_cast<std::size_t>(d)];
    EXPECT_EQ(response.schedule.assignment(ordering),
              expected.schedule.assignment(ordering))
        << d;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kDuplicates));
  EXPECT_LE(stats.queue_high_watermark, 1u);  // only the leader ever queued
}

std::string policy_test_name(const ::testing::TestParamInfo<ShedPolicy>& info) {
  return info.param == ShedPolicy::kStatic ? "static" : "tiered";
}

INSTANTIATE_TEST_SUITE_P(ServiceOverload, SingleFlight,
                         ::testing::Values(ShedPolicy::kStatic,
                                           ShedPolicy::kTiered),
                         policy_test_name);

// Under the tiered policy a nearly spent deadline weighs at least
// lite_pressure: the request degrades itself ("deadline-near", like the
// static policy) instead of launching a doomed PTAS whose certain failure
// would feed the breaker's streak and trip it for everyone else.
TEST(ServiceOverload, TieredDeadlineNearDegradesWithoutFeedingTheBreaker) {
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  options.shed_policy = ShedPolicy::kTiered;
  options.deadline_near_ms = 1'000'000;  // any finite budget is "near"
  SolveService service(options);
  for (int seed = 60; seed < 63; ++seed) {
    SolveRequest request{overload_instance(seed)};
    request.time_limit_ms = 5;
    const SolveResponse response = service.submit(std::move(request)).get();
    EXPECT_EQ(response.degradation_reason, "deadline-near");
    EXPECT_FALSE(response.shed);
    EXPECT_GT(response.makespan, 0);
  }
  // The doomed requests never reached the full-fidelity rung: no failure
  // streak, no trip — the breaker stays closed for everyone else.
  const BreakerKeyStats breaker = service.breaker().stats("ptas");
  EXPECT_EQ(breaker.failures, 0u);
  EXPECT_EQ(breaker.trips, 0u);
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
}

}  // namespace
}  // namespace pcmax
