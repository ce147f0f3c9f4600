// Overload storm harness: the SolveService under three open-loop arrival
// mixes, 10^5 requests each by default.
//
//  * poisson      — exponential inter-arrival gaps at --rate req/s over a
//                   pool of --uniques distinct problems (natural duplicate
//                   traffic: the pool is much smaller than the request
//                   count, so the dedup cache is constantly in play);
//  * bursty       — the same pool, but arrivals come in back-to-back bursts
//                   of --burst requests separated by idle gaps sized so the
//                   AVERAGE rate matches --rate. Bursts larger than the
//                   queue force the tiered admission layer to shed;
//  * duplicate-heavy — the adversarial coalescing mix: waves of --wave
//                   requests, each wave one FRESH instance plus wave-1
//                   job-order permutations of it, all flooded at once. The
//                   cache cannot help inside a wave (nothing is stored
//                   until the first solve finishes), so without coalescing
//                   every worker burns a redundant full solve per wave.
//
// The dispatcher is OPEN-LOOP: requests are submitted on the arrival
// schedule whether or not earlier ones completed (the tiered policy sheds
// instead of blocking), and futures are harvested afterwards. Per mix the
// bench reports p50/p99/p999 end-to-end latency, shed rate, coalesce rate,
// breaker trips, and cache hit rate.
//
// The duplicate-heavy mix runs twice — coalescing on and off, equal
// workers — and reports the throughput ratio (the acceptance bar is
// >= 1.3x). Both arms are cross-checked response-by-response against an
// unloaded single-worker reference service fed the identical request
// sequence: every non-shed full-fidelity response must carry the same
// makespan AND the same schedule as the reference (responses are pure
// functions of the canonical problem, loaded or not).
//
// The scale section (enabled with --scale-requests > 0) is the 10^6-request
// arm: a duplicate-heavy Poisson mix flooded through a windowed async
// dispatcher (at most --scale-window futures in flight, harvested oldest-
// first and discarded, so memory stays bounded at any request count). It
// runs twice — one shard, then --shards shards, equal total workers — and
// reports per-shard p50/p99/p999 latency, the shard imbalance ratio
// (max/mean requests per shard), and the sharded-over-single throughput
// ratio. Every non-shed response is cross-checked against a precomputed
// unloaded reference solve of its pool entry.
//
// `--json <path>` writes a pcmax.bench.storm.v1 document; the tracked
// snapshot is BENCH_storm.json in the repo root.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instance_gen.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

namespace {

/// One scheduled submission: which pool instance, and when (ns from start).
struct Arrival {
  std::size_t pool_index = 0;
  std::uint64_t offset_ns = 0;
};

/// Everything measured about one storm run.
struct StormOutcome {
  std::string name;
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double shed_rate = 0.0;
  double coalesce_rate = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t degraded = 0;
  std::uint64_t internal_errors = 0;
  // Responses per variant tag; empty when every response was classic (the
  // JSON omits the breakdown in that case so pre-variant reports keep
  // their exact shape).
  std::map<std::string, std::uint64_t> variant_counts;
};

/// Drives one open-loop storm: submits `arrivals` against a fresh service
/// on schedule (sleeping only when more than 1 ms ahead — behind schedule
/// means submit immediately, never pace down to the service), harvests all
/// futures, and snapshots the stats. Responses land in submission order.
StormOutcome run_storm(const std::string& name,
                       const std::vector<Instance>& pool,
                       const std::vector<Arrival>& arrivals,
                       const ServiceOptions& options,
                       std::vector<SolveResponse>* responses_out = nullptr) {
  SolveService service(options);
  std::vector<SolveFuture> futures;
  futures.reserve(arrivals.size());
  const std::uint64_t start = obs::monotonic_ns();
  for (const Arrival& arrival : arrivals) {
    const std::uint64_t target = start + arrival.offset_ns;
    const std::uint64_t now = obs::monotonic_ns();
    if (target > now && target - now > 1'000'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
    }
    futures.push_back(service.submit(SolveRequest{pool[arrival.pool_index]}));
  }
  std::vector<SolveResponse> responses;
  responses.reserve(futures.size());
  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  for (SolveFuture& future : futures) {
    responses.push_back(future.get());
    latencies_ms.push_back(responses.back().seconds * 1e3);
  }
  const double seconds =
      static_cast<double>(obs::monotonic_ns() - start) * 1e-9;
  const ServiceStats stats = service.stats();

  StormOutcome outcome;
  outcome.name = name;
  outcome.requests = stats.requests;
  outcome.seconds = seconds;
  outcome.rps = seconds > 0.0
                    ? static_cast<double>(arrivals.size()) / seconds
                    : 0.0;
  outcome.p50_ms = percentile(latencies_ms, 50.0);
  outcome.p99_ms = percentile(latencies_ms, 99.0);
  outcome.p999_ms = percentile(latencies_ms, 99.9);
  const double total = static_cast<double>(stats.requests);
  if (total > 0.0) {
    outcome.shed_rate =
        static_cast<double>(stats.shed_quota + stats.shed_overload) / total;
    outcome.coalesce_rate = static_cast<double>(stats.coalesced) / total;
  }
  const std::uint64_t probes = stats.cache.hits + stats.cache.misses;
  outcome.cache_hit_rate =
      probes > 0 ? static_cast<double>(stats.cache.hits) /
                       static_cast<double>(probes)
                 : 0.0;
  outcome.breaker_trips = stats.breaker.trips;
  outcome.degraded = stats.degraded;
  outcome.internal_errors = stats.internal_errors;
  for (const SolveResponse& response : responses) {
    ++outcome.variant_counts[response.variant];
  }
  if (outcome.variant_counts.size() == 1 &&
      outcome.variant_counts.count("classic") == 1) {
    outcome.variant_counts.clear();
  }
  if (responses_out != nullptr) *responses_out = std::move(responses);
  return outcome;
}

/// A pool of `uniques` distinct problems for the poisson/bursty mixes.
std::vector<Instance> build_pool(int uniques, int m, int n,
                                 std::uint64_t seed) {
  std::vector<Instance> pool;
  pool.reserve(static_cast<std::size_t>(uniques));
  for (int i = 0; i < uniques; ++i) {
    pool.push_back(generate_instance(InstanceFamily::kUniform1To100, m, n,
                                     seed, static_cast<std::uint64_t>(i)));
  }
  return pool;
}

/// Exponential inter-arrival gaps at `rate` req/s, uniform pool picks.
std::vector<Arrival> poisson_arrivals(int requests, std::size_t pool_size,
                                      double rate, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9015504eULL);
  std::exponential_distribution<double> gap(rate);
  std::vector<Arrival> arrivals(static_cast<std::size_t>(requests));
  double clock_s = 0.0;
  for (Arrival& arrival : arrivals) {
    clock_s += gap(rng);
    arrival.pool_index = rng() % pool_size;
    arrival.offset_ns = static_cast<std::uint64_t>(clock_s * 1e9);
  }
  return arrivals;
}

/// Back-to-back bursts of `burst` requests; idle gaps keep the average
/// arrival rate at `rate` req/s, so each burst hits at ~2x the queue's
/// sustainable intake.
std::vector<Arrival> bursty_arrivals(int requests, std::size_t pool_size,
                                     int burst, double rate,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xb5457ULL);
  std::vector<Arrival> arrivals(static_cast<std::size_t>(requests));
  const double period_s = static_cast<double>(burst) / rate;
  for (int i = 0; i < requests; ++i) {
    const int wave = i / burst;
    arrivals[static_cast<std::size_t>(i)].pool_index = rng() % pool_size;
    arrivals[static_cast<std::size_t>(i)].offset_ns =
        static_cast<std::uint64_t>(static_cast<double>(wave) * period_s * 1e9);
  }
  return arrivals;
}

/// The adversarial duplicate-heavy mix: `requests / wave` waves, each one
/// fresh instance followed by wave-1 job-order permutations, all at t=0
/// (a flood). Returns the pool and the arrival order together — the pool
/// holds every permuted copy so the canonicalization layer does real work.
std::pair<std::vector<Instance>, std::vector<Arrival>> duplicate_heavy_mix(
    int requests, int wave, int m, int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xd0bbULL);
  std::vector<Instance> pool;
  pool.reserve(static_cast<std::size_t>(requests));
  const int waves = std::max(1, requests / wave);
  for (int w = 0; w < waves && static_cast<int>(pool.size()) < requests; ++w) {
    const Instance base = generate_instance(InstanceFamily::kUniform1To100, m,
                                            n, seed,
                                            static_cast<std::uint64_t>(w));
    pool.push_back(base);
    for (int d = 1; d < wave && static_cast<int>(pool.size()) < requests;
         ++d) {
      std::vector<Time> times(base.times().begin(), base.times().end());
      std::shuffle(times.begin(), times.end(), rng);
      pool.emplace_back(base.machines(), std::move(times));
    }
  }
  std::vector<Arrival> arrivals(pool.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].pool_index = i;  // offset stays 0: submit as fast as possible
  }
  return {std::move(pool), std::move(arrivals)};
}

/// Counts responses that differ from the unloaded reference: a non-shed
/// response must carry the reference's exact makespan and schedule.
int crosscheck(const std::vector<SolveResponse>& got,
               const std::vector<SolveResponse>& reference) {
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].shed) continue;  // structured reject: nothing to compare
    if (got[i].makespan != reference[i].makespan ||
        !(got[i].schedule == reference[i].schedule)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Per-shard latency/traffic breakdown for one scale arm.
struct ShardBreakdown {
  int shard = 0;
  std::uint64_t requests = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// One scale arm: a full windowed-async storm at a fixed shard count.
struct ScaleArm {
  StormOutcome outcome;
  std::vector<ShardBreakdown> shards;
  double imbalance = 0.0;  // max/mean requests per shard (1.0 = perfect)
  int crosscheck_failures = 0;
};

/// The 10^6-request arm: floods `arrivals` through submit_async from
/// `submitters` parallel client threads, each keeping at most
/// `window / submitters` futures in flight. Futures are harvested
/// oldest-first and DISCARDED after recording latency, shard, and a
/// cross-check against the precomputed per-pool-entry reference — memory
/// stays bounded at any request count. The cache is warmed (one pass over
/// the pool) before the clock starts, so the arm measures serving-path
/// contention, not first-solve cost.
ScaleArm run_scale_arm(const std::string& name,
                       const std::vector<Instance>& pool,
                       const std::vector<SolveResponse>& reference,
                       const std::vector<Arrival>& arrivals,
                       const ServiceOptions& options, std::size_t window,
                       unsigned submitters) {
  SolveService service(options);
  {
    std::vector<SolveRequest> warm;
    warm.reserve(pool.size());
    for (const Instance& instance : pool) warm.push_back(SolveRequest{instance});
    (void)service.solve_batch(std::move(warm));
  }

  // Per-client state, merged after the join: no sharing during the run.
  struct ClientState {
    std::vector<double> latencies_ms;
    std::vector<std::vector<double>> shard_latencies_ms;
    int mismatches = 0;
  };
  std::vector<ClientState> clients(submitters);
  const std::size_t client_window =
      std::max<std::size_t>(1, window / submitters);

  const std::uint64_t start = obs::monotonic_ns();
  {
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (unsigned c = 0; c < submitters; ++c) {
      threads.emplace_back([&, c] {
        ClientState& state = clients[c];
        state.shard_latencies_ms.resize(service.shard_count());
        state.latencies_ms.reserve(arrivals.size() / submitters + 1);
        std::deque<std::pair<SolveFuture, std::size_t>> inflight;
        const auto harvest_one = [&] {
          auto [future, pool_index] = std::move(inflight.front());
          inflight.pop_front();
          const SolveResponse response = future.get();
          state.latencies_ms.push_back(response.seconds * 1e3);
          if (response.shard >= 0 && static_cast<std::size_t>(response.shard) <
                                         state.shard_latencies_ms.size()) {
            state.shard_latencies_ms[static_cast<std::size_t>(response.shard)]
                .push_back(response.seconds * 1e3);
          }
          if (!response.shed &&
              (response.makespan != reference[pool_index].makespan ||
               !(response.schedule == reference[pool_index].schedule))) {
            ++state.mismatches;
          }
        };
        // Client c owns every (submitters)-th arrival, on the original
        // poisson schedule.
        for (std::size_t i = c; i < arrivals.size(); i += submitters) {
          const Arrival& arrival = arrivals[i];
          const std::uint64_t target = start + arrival.offset_ns;
          const std::uint64_t now = obs::monotonic_ns();
          if (target > now && target - now > 1'000'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(target - now));
          }
          inflight.emplace_back(
              service.submit_async(SolveRequest{pool[arrival.pool_index]}),
              arrival.pool_index);
          while (inflight.size() >= client_window) harvest_one();
        }
        while (!inflight.empty()) harvest_one();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double seconds =
      static_cast<double>(obs::monotonic_ns() - start) * 1e-9;
  const ServiceStats stats = service.stats();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(arrivals.size());
  std::vector<std::vector<double>> shard_latencies_ms(service.shard_count());
  int mismatches = 0;
  for (ClientState& state : clients) {
    latencies_ms.insert(latencies_ms.end(), state.latencies_ms.begin(),
                        state.latencies_ms.end());
    for (std::size_t shard = 0; shard < state.shard_latencies_ms.size();
         ++shard) {
      shard_latencies_ms[shard].insert(shard_latencies_ms[shard].end(),
                                       state.shard_latencies_ms[shard].begin(),
                                       state.shard_latencies_ms[shard].end());
    }
    mismatches += state.mismatches;
  }

  ScaleArm arm;
  arm.outcome.name = name;
  arm.outcome.requests = static_cast<std::uint64_t>(arrivals.size());
  arm.outcome.seconds = seconds;
  arm.outcome.rps =
      seconds > 0.0 ? static_cast<double>(arrivals.size()) / seconds : 0.0;
  arm.outcome.p50_ms = percentile(latencies_ms, 50.0);
  arm.outcome.p99_ms = percentile(latencies_ms, 99.0);
  arm.outcome.p999_ms = percentile(latencies_ms, 99.9);
  const double total = static_cast<double>(stats.requests);
  if (total > 0.0) {
    arm.outcome.shed_rate =
        static_cast<double>(stats.shed_quota + stats.shed_overload) / total;
    arm.outcome.coalesce_rate = static_cast<double>(stats.coalesced) / total;
  }
  const std::uint64_t probes = stats.cache.hits + stats.cache.misses;
  arm.outcome.cache_hit_rate =
      probes > 0
          ? static_cast<double>(stats.cache.hits) / static_cast<double>(probes)
          : 0.0;
  arm.outcome.breaker_trips = stats.breaker.trips;
  arm.outcome.degraded = stats.degraded;
  arm.outcome.internal_errors = stats.internal_errors;
  arm.crosscheck_failures = mismatches;

  std::uint64_t max_requests = 0;
  std::uint64_t sum_requests = 0;
  for (const ShardStats& shard : stats.shards) {
    ShardBreakdown breakdown;
    breakdown.shard = shard.shard;
    breakdown.requests = shard.requests;
    const std::vector<double>& lat =
        shard_latencies_ms[static_cast<std::size_t>(shard.shard)];
    breakdown.p50_ms = percentile(lat, 50.0);
    breakdown.p99_ms = percentile(lat, 99.0);
    breakdown.p999_ms = percentile(lat, 99.9);
    max_requests = std::max(max_requests, shard.requests);
    sum_requests += shard.requests;
    arm.shards.push_back(breakdown);
  }
  const double mean = stats.shards.empty()
                          ? 0.0
                          : static_cast<double>(sum_requests) /
                                static_cast<double>(stats.shards.size());
  arm.imbalance = mean > 0.0 ? static_cast<double>(max_requests) / mean : 0.0;
  return arm;
}

std::vector<std::string> outcome_row(const StormOutcome& o) {
  return {o.name,
          TablePrinter::fmt(o.seconds, 3),
          TablePrinter::fmt(o.rps, 0),
          TablePrinter::fmt(o.p50_ms, 2),
          TablePrinter::fmt(o.p99_ms, 2),
          TablePrinter::fmt(o.p999_ms, 2),
          TablePrinter::fmt(100.0 * o.shed_rate, 1) + "%",
          TablePrinter::fmt(100.0 * o.coalesce_rate, 1) + "%",
          TablePrinter::fmt(100.0 * o.cache_hit_rate, 1) + "%",
          std::to_string(o.breaker_trips)};
}

JsonValue outcome_json(const StormOutcome& o) {
  JsonValue mix = JsonValue::make_object();
  mix["requests"] = o.requests;
  mix["seconds"] = o.seconds;
  mix["requests_per_second"] = o.rps;
  mix["p50_ms"] = o.p50_ms;
  mix["p99_ms"] = o.p99_ms;
  mix["p999_ms"] = o.p999_ms;
  mix["shed_rate"] = o.shed_rate;
  mix["coalesce_rate"] = o.coalesce_rate;
  mix["cache_hit_rate"] = o.cache_hit_rate;
  mix["breaker_trips"] = o.breaker_trips;
  mix["degraded"] = o.degraded;
  mix["internal_errors"] = o.internal_errors;
  if (!o.variant_counts.empty()) {
    JsonValue& variants = mix["variants"];
    for (const auto& [name, count] : o.variant_counts) variants[name] = count;
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Storm harness: the solve service under open-loop poisson, bursty and "
      "adversarial duplicate-heavy arrival mixes, with a coalescing on/off "
      "throughput comparison cross-checked against an unloaded reference.");
  cli.add_int("requests", 100000, "requests per mix");
  cli.add_int("workers", 8, "service worker threads (both coalescing arms)");
  cli.add_int("shards", 1,
              "service shards for every mix; the scale section compares "
              "this against a single-shard arm at equal total workers");
  cli.add_int("scale-requests", 0,
              "scale section: requests per arm (0 disables; the tracked "
              "BENCH_storm.json uses 1000000)");
  cli.add_int("scale-uniques", 512,
              "scale section: distinct problems in the pool");
  cli.add_double("scale-rate", 500000.0,
                 "scale section: nominal poisson arrival rate, req/s (set "
                 "above capacity so the run is throughput-bound)");
  cli.add_int("scale-window", 4096,
              "scale section: max futures in flight (bounds both memory "
              "and queue depth)");
  cli.add_int("scale-submitters", 4,
              "scale section: parallel client threads per arm");
  cli.add_double("min-shard-speedup", 0.0,
                 "fail unless the sharded scale arm beats single-shard by "
                 "this factor (0 = report only)");
  cli.add_double("rate", 40000.0, "poisson/bursty arrival rate, req/s");
  cli.add_int("uniques", 256, "distinct problems in the poisson/bursty pool");
  cli.add_int("burst", 1024, "bursty mix: requests per burst");
  cli.add_int("queue", 512, "queue capacity for the tiered (shedding) mixes");
  cli.add_int("m", 3, "machines per instance (poisson/bursty)");
  cli.add_int("n", 12, "jobs per instance (poisson/bursty)");
  cli.add_int("wave", 64, "duplicate-heavy mix: duplicates per wave");
  cli.add_int("heavy-m", 8, "machines per instance (duplicate-heavy)");
  cli.add_int("heavy-n", 40, "jobs per instance (duplicate-heavy)");
  cli.add_double("epsilon", 0.3, "PTAS accuracy (poisson/bursty)");
  cli.add_double("heavy-epsilon", 0.2,
                 "PTAS accuracy for the duplicate-heavy mix; tighter than "
                 "--epsilon so one full solve dwarfs a cache probe and "
                 "redundant concurrent solves actually cost something");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_string("variant-mix", "",
                 "tag the poisson/bursty pool with problem variants, "
                 "round-robin by weight, e.g. "
                 "'classic=2,capacity=1,incremental=1' (empty = all classic; "
                 "the duplicate-heavy and scale arms stay classic so their "
                 "coalescing/sharding comparisons are unchanged)");
  cli.add_double("min-coalesce-speedup", 0.0,
                 "fail unless coalescing-on beats coalescing-off by this "
                 "factor on the duplicate-heavy mix (0 = report only)");
  cli.add_string("json", "", "write results as JSON to this path");
  if (!cli.parse(argc, argv)) return 0;

  const int requests = static_cast<int>(cli.get_int("requests"));
  const unsigned workers = static_cast<unsigned>(cli.get_int("workers"));
  const double rate = cli.get_double("rate");
  const int uniques = static_cast<int>(cli.get_int("uniques"));
  const int burst = static_cast<int>(cli.get_int("burst"));
  const auto queue = static_cast<std::size_t>(cli.get_int("queue"));
  const int m = static_cast<int>(cli.get_int("m"));
  const int n = static_cast<int>(cli.get_int("n"));
  const int wave = static_cast<int>(cli.get_int("wave"));
  const int heavy_m = static_cast<int>(cli.get_int("heavy-m"));
  const int heavy_n = static_cast<int>(cli.get_int("heavy-n"));
  const double epsilon = cli.get_double("epsilon");
  const double heavy_epsilon = cli.get_double("heavy-epsilon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double min_speedup = cli.get_double("min-coalesce-speedup");
  const unsigned shards = static_cast<unsigned>(cli.get_int("shards"));

  // The shedding mixes: tiered admission over a deliberately small queue.
  ServiceOptions tiered;
  tiered.shards = shards;
  tiered.workers = workers;
  tiered.queue_capacity = queue;
  tiered.cache_capacity = 4096;
  tiered.epsilon = epsilon;
  tiered.shed_policy = ShedPolicy::kTiered;

  std::vector<Instance> pool = build_pool(uniques, m, n, seed);
  const std::string variant_mix_spec = cli.get_string("variant-mix");
  if (!variant_mix_spec.empty()) {
    const VariantMix mix = parse_variant_mix(variant_mix_spec);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i] = apply_variant_mix(mix, pool[i], seed, i);
    }
  }
  std::cout << "=== service storm: " << requests << " requests/mix, workers="
            << workers << ", shards=" << shards << ", rate=" << rate
            << "/s, queue=" << queue << ", eps=" << epsilon
            << (variant_mix_spec.empty() ? ""
                                         : ", variant-mix=" + variant_mix_spec)
            << " ===\n";

  const StormOutcome poisson = run_storm(
      "poisson", pool,
      poisson_arrivals(requests, pool.size(), rate, seed), tiered);
  const StormOutcome bursty = run_storm(
      "bursty", pool,
      bursty_arrivals(requests, pool.size(), burst, rate, seed), tiered);

  // The coalescing arms solve identical floods with identical options,
  // differing ONLY in options.coalesce; blocking (static) admission keeps
  // every request full-fidelity so the comparison is solve-for-solve.
  const auto [heavy_pool, heavy_arrivals] =
      duplicate_heavy_mix(requests, wave, heavy_m, heavy_n, seed);
  ServiceOptions flood;
  flood.shards = shards;
  flood.workers = workers;
  // Each shard's queue is a 1/shards slice of queue_capacity, and a shard
  // whose queue depth reaches its slice degrades dispatches to the lite
  // tier ("queue-saturated"). Size every slice for the whole pool: never
  // block, never degrade, never shed.
  flood.queue_capacity =
      (heavy_pool.size() + 1) * std::max(1u, shards);
  flood.cache_capacity = 4096;
  flood.epsilon = heavy_epsilon;
  std::vector<SolveResponse> on_responses;
  flood.coalesce = true;
  const StormOutcome dup_on = run_storm("dup-heavy(coalesce)", heavy_pool,
                                        heavy_arrivals, flood, &on_responses);
  std::vector<SolveResponse> off_responses;
  flood.coalesce = false;
  const StormOutcome dup_off = run_storm("dup-heavy(no-coalesce)", heavy_pool,
                                         heavy_arrivals, flood,
                                         &off_responses);
  const double coalesce_speedup =
      dup_on.seconds > 0.0 ? dup_off.seconds / dup_on.seconds : 0.0;

  // Unloaded reference: one worker, no storm, same request sequence. Every
  // stormed response must be byte-identical to this one in makespan and
  // schedule (responses are pure functions of the canonical problem).
  ServiceOptions unloaded;
  unloaded.workers = 1;
  unloaded.queue_capacity = heavy_pool.size() + 1;
  unloaded.cache_capacity = 4096;
  unloaded.epsilon = heavy_epsilon;
  std::vector<SolveRequest> reference_batch;
  reference_batch.reserve(heavy_pool.size());
  for (const Instance& instance : heavy_pool) {
    reference_batch.push_back(SolveRequest{instance});
  }
  SolveService reference_service(unloaded);
  const std::vector<SolveResponse> reference =
      reference_service.solve_batch(std::move(reference_batch));
  const int mismatches =
      crosscheck(on_responses, reference) + crosscheck(off_responses, reference);

  TablePrinter table({"mix", "seconds", "req/s", "p50 ms", "p99 ms",
                      "p999 ms", "shed", "coalesced", "cache hit", "trips"});
  for (const StormOutcome* o : {&poisson, &bursty, &dup_on, &dup_off}) {
    table.add_row(outcome_row(*o));
  }
  std::cout << table.to_string() << "coalesce speedup: "
            << TablePrinter::fmt(coalesce_speedup, 2)
            << "x   cross-check failures: " << mismatches << "\n";

  // --- scale section: single-shard vs sharded at equal total workers ---
  const int scale_requests = static_cast<int>(cli.get_int("scale-requests"));
  std::optional<ScaleArm> scale_single;
  std::optional<ScaleArm> scale_sharded;
  double shard_speedup = 0.0;
  if (scale_requests > 0) {
    const int scale_uniques = static_cast<int>(cli.get_int("scale-uniques"));
    const double scale_rate = cli.get_double("scale-rate");
    const auto scale_window =
        static_cast<std::size_t>(cli.get_int("scale-window"));
    PCMAX_REQUIRE(scale_window >= 1, "--scale-window must be at least 1");
    const auto scale_submitters =
        static_cast<unsigned>(cli.get_int("scale-submitters"));
    PCMAX_REQUIRE(scale_submitters >= 1,
                  "--scale-submitters must be at least 1");
    const std::vector<Instance> scale_pool =
        build_pool(scale_uniques, m, n, seed ^ 0x5ca1eULL);
    const std::vector<Arrival> scale_arrivals = poisson_arrivals(
        scale_requests, scale_pool.size(), scale_rate, seed ^ 0x5ca1eULL);

    // The unloaded per-pool-entry reference every streamed response is
    // cross-checked against.
    ServiceOptions scale_unloaded;
    scale_unloaded.workers = 1;
    scale_unloaded.queue_capacity = scale_pool.size() + 1;
    scale_unloaded.cache_capacity = scale_pool.size() + 1;
    scale_unloaded.epsilon = epsilon;
    std::vector<SolveRequest> scale_reference_batch;
    scale_reference_batch.reserve(scale_pool.size());
    for (const Instance& instance : scale_pool) {
      scale_reference_batch.push_back(SolveRequest{instance});
    }
    SolveService scale_reference_service(scale_unloaded);
    const std::vector<SolveResponse> scale_reference =
        scale_reference_service.solve_batch(std::move(scale_reference_batch));

    ServiceOptions scale_options;
    scale_options.workers = workers;
    scale_options.queue_capacity = 2 * scale_window;
    scale_options.cache_capacity = 4 * static_cast<std::size_t>(scale_uniques);
    scale_options.epsilon = epsilon;
    std::cout << "=== scale: " << scale_requests << " requests/arm, "
              << scale_uniques << " uniques, window=" << scale_window
              << ", 1 vs " << shards << " shards ===\n";
    scale_options.shards = 1;
    scale_single =
        run_scale_arm("scale(1 shard)", scale_pool, scale_reference,
                      scale_arrivals, scale_options, scale_window,
                      scale_submitters);
    scale_options.shards = shards;
    scale_sharded = run_scale_arm(
        "scale(" + std::to_string(shards) + " shards)", scale_pool,
        scale_reference, scale_arrivals, scale_options, scale_window,
        scale_submitters);
    shard_speedup = scale_single->outcome.rps > 0.0
                        ? scale_sharded->outcome.rps / scale_single->outcome.rps
                        : 0.0;

    TablePrinter scale_table({"arm", "seconds", "req/s", "p50 ms", "p99 ms",
                              "p999 ms", "shed", "coalesced", "cache hit",
                              "trips"});
    scale_table.add_row(outcome_row(scale_single->outcome));
    scale_table.add_row(outcome_row(scale_sharded->outcome));
    std::cout << scale_table.to_string();
    TablePrinter shard_table(
        {"shard", "requests", "p50 ms", "p99 ms", "p999 ms"});
    for (const ShardBreakdown& breakdown : scale_sharded->shards) {
      shard_table.add_row({std::to_string(breakdown.shard),
                           std::to_string(breakdown.requests),
                           TablePrinter::fmt(breakdown.p50_ms, 3),
                           TablePrinter::fmt(breakdown.p99_ms, 3),
                           TablePrinter::fmt(breakdown.p999_ms, 3)});
    }
    std::cout << shard_table.to_string() << "shard speedup: "
              << TablePrinter::fmt(shard_speedup, 2)
              << "x   imbalance: "
              << TablePrinter::fmt(scale_sharded->imbalance, 3)
              << "   scale cross-check failures: "
              << (scale_single->crosscheck_failures +
                  scale_sharded->crosscheck_failures)
              << "\n";
  }

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    JsonValue root = JsonValue::make_object();
    root["schema"] = "pcmax.bench.storm.v1";
    JsonValue& params = root["params"];
    params["requests_per_mix"] = requests;
    params["workers"] = workers;
    params["rate_rps"] = rate;
    params["uniques"] = uniques;
    params["burst"] = burst;
    params["queue_capacity"] = static_cast<std::uint64_t>(queue);
    params["m"] = m;
    params["n"] = n;
    params["wave"] = wave;
    params["heavy_m"] = heavy_m;
    params["heavy_n"] = heavy_n;
    params["epsilon"] = epsilon;
    params["heavy_epsilon"] = heavy_epsilon;
    params["seed"] = static_cast<std::int64_t>(seed);
    if (!variant_mix_spec.empty()) params["variant_mix"] = variant_mix_spec;
    // Sharding converts shared-structure contention into per-shard
    // parallelism; on a single-core host the wall-clock headroom is limited
    // to the contention overhead itself, so record the core count the
    // numbers were taken on.
    params["hardware_concurrency"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    JsonValue& mixes = root["mixes"];
    mixes["poisson"] = outcome_json(poisson);
    mixes["bursty"] = outcome_json(bursty);
    mixes["duplicate_heavy_coalesce_on"] = outcome_json(dup_on);
    mixes["duplicate_heavy_coalesce_off"] = outcome_json(dup_off);
    root["coalesce_speedup"] = coalesce_speedup;
    root["crosscheck_failures"] = mismatches;
    if (scale_single.has_value() && scale_sharded.has_value()) {
      // Re-fetch: the `params` reference above is invalidated by the
      // root["mixes"]/root["scale"] insertions.
      JsonValue& scale_params = root["params"];
      scale_params["shards"] = shards;
      scale_params["scale_requests"] = scale_requests;
      scale_params["scale_uniques"] = cli.get_int("scale-uniques");
      scale_params["scale_rate_rps"] = cli.get_double("scale-rate");
      scale_params["scale_window"] = cli.get_int("scale-window");
      scale_params["scale_submitters"] = cli.get_int("scale-submitters");
      JsonValue& scale = root["scale"];
      const auto arm_json = [](const ScaleArm& arm) {
        JsonValue value = outcome_json(arm.outcome);
        value["imbalance"] = arm.imbalance;
        value["crosscheck_failures"] = arm.crosscheck_failures;
        JsonValue per_shard = JsonValue::make_array();
        for (const ShardBreakdown& breakdown : arm.shards) {
          JsonValue entry = JsonValue::make_object();
          entry["shard"] = breakdown.shard;
          entry["requests"] = breakdown.requests;
          entry["p50_ms"] = breakdown.p50_ms;
          entry["p99_ms"] = breakdown.p99_ms;
          entry["p999_ms"] = breakdown.p999_ms;
          per_shard.append(std::move(entry));
        }
        value["per_shard"] = std::move(per_shard);
        return value;
      };
      scale["single_shard"] = arm_json(*scale_single);
      scale["sharded"] = arm_json(*scale_sharded);
      scale["shard_speedup"] = shard_speedup;
    }
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "cannot open --json output file '" << json_path << "'\n";
      return 1;
    }
    out << root.dump(/*pretty=*/true) << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  if (mismatches != 0) return 1;
  if (min_speedup > 0.0 && coalesce_speedup < min_speedup) {
    std::cerr << "coalesce speedup " << coalesce_speedup << " below required "
              << min_speedup << "\n";
    return 1;
  }
  if (scale_single.has_value() && scale_sharded.has_value()) {
    if (scale_single->crosscheck_failures + scale_sharded->crosscheck_failures
        != 0) {
      std::cerr << "scale cross-check failures\n";
      return 1;
    }
    const double min_shard_speedup = cli.get_double("min-shard-speedup");
    if (min_shard_speedup > 0.0 && shard_speedup < min_shard_speedup) {
      std::cerr << "shard speedup " << shard_speedup << " below required "
                << min_shard_speedup << "\n";
      return 1;
    }
  }
  return 0;
}
