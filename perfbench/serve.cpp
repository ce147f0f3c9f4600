// serve-online and serve-batch: requests into SolveService through
// submit_async, completions stamped in SolveFuture::then() continuations,
// and every response checked afterwards against an unloaded reference solve
// of its canonical instance.
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/bounds.hpp"
#include "core/fingerprint.hpp"
#include "core/instance_gen.hpp"
#include "core/solver_registry.hpp"
#include "layers.hpp"
#include "parallel/executor.hpp"
#include "service/solve_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using pcmax::Instance;

constexpr int kMachines = 20;
constexpr int kJobs = 100;
constexpr double kEpsilon = 0.3;

// serve-online traffic shape. The pool fits in the service cache (each
// shard's slice holds 1024 / shards entries) and set-up leaves it there, so
// the Poisson stream is served from the cache. The waves bring fresh
// instances, each sent twice at once in different job orders: the misses
// keep the workers about a third busy, so hits queue behind real solves,
// and the pairs are concurrent duplicates. (Half busy, the generator falls
// behind its schedule on four shared vCPUs.)
constexpr std::size_t kPoolSize = 256;
constexpr double kZipfExponent = 1.0;
constexpr double kWavePeriodS = 0.0008;
constexpr int kWaveSize = 2;

// serve-batch keeps this many requests per worker in flight. The total
// stays below one shard's queue capacity, so no request degrades.
constexpr std::size_t kBatchWindowPerWorker = 4;
// Upper bound on serve-batch's rate, for sizing its request records.
constexpr double kBatchMaxRps = 50'000.0;

constexpr double kDrainTimeoutS = 60.0;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  pcmax::SplitMix64 mixer(seed ^ (0xd1b54a32d192ed03ULL * (salt + 1)));
  return mixer.next();
}

Instance base_instance(std::uint64_t seed, std::uint64_t index) {
  const std::vector<pcmax::InstanceFamily> families = pcmax::speedup_families();
  return pcmax::generate_instance(families[index % families.size()], kMachines,
                                  kJobs, seed, index / families.size());
}

/// One request as the benchmark saw it. The generator writes the first
/// block, the completion continuation the second; they never share a field.
struct Record {
  // Generator side.
  std::uint64_t base = 0;       ///< index of the base instance
  std::uint64_t perm_seed = 0;  ///< job-order shuffle; 0 = base order
  double due = 0.0;
  double sent = 0.0;
  double submitted = 0.0;       ///< end of submit_async (traced requests only)
  bool traced = false;
  bool submit_failed = false;
  // Continuation side.
  double done = 0.0;
  ScheduleDigest digest;
  pcmax::Time makespan = 0;
  double queue_s = 0.0;
  double solve_s = 0.0;
  bool cache_hit = false;
  bool coalesced = false;
  bool degraded = false;
  bool shed = false;
};

/// The program under test and its settings.
struct Service {
  pcmax::ServiceOptions options;
  std::unique_ptr<pcmax::SolveService> service;
};

pcmax::ServiceOptions service_options(unsigned threads) {
  pcmax::ServiceOptions options;
  const unsigned workers = std::max(1u, threads - 1);
  options.shards = workers;
  options.workers = workers;
  options.lane_width = 1;
  return options;
}

/// Median set-up time over several rounds.
struct SetUp {
  double median_s = 0.0;
  int rounds = 0;
};

constexpr int kSetUpRounds = 31;
// The warm-up instance is the same for every seed: solve times of single
// instances differ by a factor of five, and set-up time should not.
constexpr std::uint64_t kWarmUpSeed = 20170529;

/// Builds the service and answers one warm-up request through it (a cache
/// miss, so one solve), kSetUpRounds times; keeps the last service.
SetUp set_up(Service& svc) {
  const Instance warmup = base_instance(kWarmUpSeed, 0);
  Samples setup_s;
  for (int round = 0; round < kSetUpRounds; ++round) {
    svc.service.reset();
    const double start = now_s();
    svc.service = std::make_unique<pcmax::SolveService>(svc.options);
    svc.service->submit_async(pcmax::SolveRequest(warmup)).wait();
    setup_s.add(since_s(start));
  }
  return {setup_s.median(), kSetUpRounds};
}

/// Whether request `index` of a traced run records its spans. Traced and
/// untraced requests interleave at random over the whole run, so comparing
/// them measures what tracing costs and not how the run drifted.
bool traced_request(const Settings& settings, std::uint64_t index) {
  return settings.trace && (mix(settings.seed, 0x7ace0000 + index) & 1) != 0;
}

/// Completion bookkeeping shared with the continuations.
struct Completions {
  std::atomic<std::uint64_t> count{0};
  std::mutex degraded_mutex;
  std::vector<std::pair<std::size_t, pcmax::Schedule>> degraded;
};

/// Attaches the continuation that stamps request `index` on delivery.
void stamp_on_completion(const pcmax::SolveFuture& future, std::vector<Record>& records,
                         std::size_t index, Completions& completions) {
  future.then([&records, index, &completions](const pcmax::SolveResponse& r) {
    Record& rec = records[index];
    rec.done = now_s();
    rec.digest = digest(r.schedule);
    rec.makespan = r.makespan;
    rec.queue_s = r.queue_seconds;
    rec.solve_s = r.solve_seconds;
    rec.cache_hit = r.cache_hit;
    rec.coalesced = r.coalesced;
    rec.degraded = r.degraded;
    rec.shed = r.shed;
    if (r.degraded && !r.shed) {
      const std::lock_guard<std::mutex> lock(completions.degraded_mutex);
      completions.degraded.emplace_back(index, r.schedule);
    }
    completions.count.fetch_add(1, std::memory_order_release);
  });
}

/// Waits until `expected` continuations have run or the drain times out.
void drain(const Completions& completions, std::uint64_t expected) {
  const double start = now_s();
  while (completions.count.load(std::memory_order_acquire) < expected &&
         since_s(start) < kDrainTimeoutS) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// The request's instance, rebuilt from its record.
Instance request_instance(const std::vector<Instance>& bases, const Record& rec,
                          std::uint64_t seed) {
  const Instance& base =
      rec.base < bases.size() ? bases[rec.base] : base_instance(seed, rec.base);
  return rec.perm_seed == 0 ? base : permuted(base, rec.perm_seed);
}

/// Reference canonical-space assignment of one base instance, solved by the
/// service's own solver stack with nothing else running.
struct Reference {
  std::vector<int> assignment;
  double lb = 0.0;
  bool ok = false;
};

/// Solves `base` in canonical form.
Reference reference_solve(const Instance& base) {
  pcmax::SolverBuild build;
  build.epsilon = kEpsilon;
  const auto solver = pcmax::SolverRegistry::global().create("resilient", build);
  const pcmax::CanonicalInstance canonical(base);
  Reference ref;
  ref.lb = static_cast<double>(pcmax::makespan_lower_bound(base));
  const pcmax::SolverResult result = solver->solve(canonical.instance());
  ref.ok = result.schedule.is_valid(canonical.instance());
  if (ref.ok) ref.assignment = result.schedule.assignment(canonical.instance());
  return ref;
}

/// Checked outcome of every record of a run.
struct Checked {
  std::vector<char> full_ok;  ///< full-fidelity, byte-equal to the reference
  std::vector<double> ratio;  ///< makespan / lower bound of full_ok records
};

/// Checks every record: a full-fidelity response must be byte-equal to the
/// lifted reference; a degraded one must still be a valid schedule; a shed,
/// failed or missing one is a failure. `references` is indexed by base.
Checked check_records(const std::vector<Record>& records, std::size_t count,
                      const std::vector<Instance>& bases, std::uint64_t seed,
                      const std::vector<Reference>& references,
                      Completions& completions, pcmax::Executor& executor,
                      Outcome& out) {
  Checked checked;
  checked.full_ok.assign(count, 0);
  checked.ratio.assign(count, 0.0);
  std::vector<char> mismatch(count, 0);
  executor.parallel_for(count, [&](std::size_t i) {
    const Record& rec = records[i];
    if (rec.submit_failed || rec.done == 0.0 || rec.shed || rec.degraded) return;
    const Reference& ref = references[rec.base];
    if (!ref.ok) return;
    const pcmax::CanonicalInstance canonical(request_instance(bases, rec, seed));
    if (digest(canonical.lift(ref.assignment)) == rec.digest) {
      checked.full_ok[i] = 1;
      checked.ratio[i] = static_cast<double>(rec.makespan) / ref.lb;
    } else {
      mismatch[i] = 1;
    }
  }, pcmax::LoopSchedule::kRoundRobin);
  std::vector<char> degraded_ok(count, 0);
  for (const auto& [index, schedule] : completions.degraded) {
    if (index < count) {
      degraded_ok[index] =
          schedule.is_valid(request_instance(bases, records[index], seed)) ? 1 : 0;
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = records[i];
    ++out.attempted;
    if (rec.submit_failed) {
      out.fail("submit_async threw on request " + std::to_string(i));
    } else if (rec.done == 0.0) {
      out.fail("no response to request " + std::to_string(i));
    } else if (rec.shed) {
      out.fail("request " + std::to_string(i) + " was shed");
    } else if (rec.degraded) {
      if (!degraded_ok[i]) out.fail("invalid degraded schedule on request " + std::to_string(i));
    } else if (!references[rec.base].ok) {
      out.fail("reference solve of base " + std::to_string(rec.base) + " is invalid");
    } else if (mismatch[i]) {
      out.fail("response to request " + std::to_string(i) +
               " differs from the reference solve");
    }
  }
  return checked;
}

/// References for every base a run requested, solved on `executor`.
std::vector<Reference> solve_references(const std::vector<Record>& records,
                                        std::size_t count,
                                        const std::vector<Instance>& bases,
                                        std::uint64_t seed, pcmax::Executor& executor) {
  std::uint64_t max_base = bases.size();
  for (std::size_t i = 0; i < count; ++i) max_base = std::max(max_base, records[i].base + 1);
  std::vector<char> needed(max_base, 0);
  for (std::size_t i = 0; i < count; ++i) needed[records[i].base] = 1;
  std::vector<std::uint64_t> todo;
  for (std::uint64_t b = 0; b < max_base; ++b) {
    if (needed[b]) todo.push_back(b);
  }
  std::vector<Reference> references(max_base);
  executor.parallel_for(todo.size(), [&](std::size_t t) {
    const std::uint64_t b = todo[t];
    references[b] = reference_solve(b < bases.size() ? bases[b] : base_instance(seed, b));
  }, pcmax::LoopSchedule::kRoundRobin);
  return references;
}

/// End-to-end latency of the first `count` records: due (online) or send
/// (batch) to completion, ms.
Samples latencies(const std::vector<Record>& records, std::size_t count) {
  Samples ms;
  for (std::size_t i = 0; i < count; ++i) {
    if (records[i].done > 0.0) ms.add((records[i].done - records[i].due) * 1e3);
  }
  return ms;
}

/// Response-field and ratio metrics of the service layer over the first
/// `count` records; the caller-side submit time over the traced ones.
void service_layer_metrics(const std::vector<Record>& records, std::size_t count,
                           const pcmax::ServiceStats& stats, Outcome& out) {
  Samples submit_us;
  Samples queue_ms;
  Samples solve_ms;
  Samples lag_ms;
  std::uint64_t responses = 0;
  std::uint64_t hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t full_solves = 0;
  std::unordered_set<std::uint64_t> solved_bases;
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = records[i];
    lag_ms.add((rec.sent - rec.due) * 1e3);
    if (rec.submitted > 0.0) submit_us.add((rec.submitted - rec.sent) * 1e6);
    if (rec.done == 0.0) continue;
    ++responses;
    queue_ms.add(rec.queue_s * 1e3);
    solve_ms.add(rec.solve_s * 1e3);
    hits += rec.cache_hit ? 1 : 0;
    coalesced += rec.coalesced ? 1 : 0;
    shed += rec.shed ? 1 : 0;
    degraded += rec.degraded ? 1 : 0;
    if (!rec.cache_hit && !rec.coalesced && !rec.shed) {
      ++full_solves;
      solved_bases.insert(rec.base);
    }
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out.metric("service.submit_us_p50", submit_us.median(), "us");
  out.metric("service.submit_us_p99", submit_us.quantile(0.99), "us");
  out.metric("service.queue_ms_p50", queue_ms.median(), "ms");
  out.metric("service.queue_ms_p99", queue_ms.quantile(0.99), "ms");
  out.metric("service.solve_ms_p50", solve_ms.median(), "ms");
  out.metric("service.hit_ratio", ratio(hits, responses), "ratio");
  out.metric("service.coalesced_ratio", ratio(coalesced, responses), "ratio");
  out.metric("service.shed_ratio", ratio(shed, responses), "ratio");
  out.metric("service.degraded_ratio", ratio(degraded, responses), "ratio");
  out.metric("service.useful_solve_ratio", ratio(solved_bases.size(), full_solves),
             "ratio");
  double most = 0.0;
  double total = 0.0;
  for (const pcmax::ShardStats& shard : stats.shards) {
    most = std::max(most, static_cast<double>(shard.requests));
    total += static_cast<double>(shard.requests);
  }
  const double mean = stats.shards.empty() ? 0.0 : total / static_cast<double>(stats.shards.size());
  out.metric("service.shard_imbalance", mean > 0.0 ? most / mean : 0.0, "ratio");
  out.metric("service.queue_high_watermark",
             static_cast<double>(stats.queue_high_watermark), "requests");
  out.metric("service.generator_lag_ms_p99", lag_ms.quantile(0.99), "ms");
  const Samples latency = latencies(records, count);
  out.metric("service.latency_ms_p50", latency.median(), "ms");
  out.metric("service.latency_ms_p90", latency.quantile(0.9), "ms");
  out.metric("service.latency_ms_p99", latency.quantile(0.99), "ms");
  out.samples("service.submit_us", submit_us.size());
  out.samples("service.queue_ms", queue_ms.size());
}

/// Records spans for the traced requests among the first `count`: the
/// request from due time to completion, the caller's submit_async, and queue
/// and solve intervals derived from the response fields, anchored at
/// completion. Runs after the run, from the records.
void record_request_spans(const std::vector<Record>& records, std::size_t count,
                          Tracer& tracer) {
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = records[i];
    if (!rec.traced || rec.done == 0.0) continue;
    const std::uint64_t op = i + 1;
    const std::uint64_t root = tracer.add("service.request", rec.due, rec.done, 0, op);
    tracer.add("service.submit", rec.sent, rec.submitted, root, op);
    const double dispatch = rec.done - rec.solve_s;
    tracer.add("service.queue", dispatch - rec.queue_s, dispatch, root, op);
    tracer.add("service.solve", dispatch, rec.done, root, op);
  }
}

/// The traced-run metrics shared by both serve workloads. While the service
/// runs, a traced request differs from an untraced one only by the clock
/// read that stamps the end of its submit_async; its spans are built from
/// the records afterwards. trace.overhead_frac is the latency p50 of the
/// traced requests over that of the untraced ones they interleave with,
/// minus 1, and the report gives the after-run cost of building the spans.
void serve_traced_metrics(const std::vector<Record>& records, std::size_t count,
                          const pcmax::ServiceStats& stats, Tracer& tracer,
                          Outcome& out) {
  Samples traced;
  Samples untraced;
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = records[i];
    if (rec.done > 0.0) (rec.traced ? traced : untraced).add((rec.done - rec.due) * 1e3);
  }
  out.metric("trace.overhead_frac",
             untraced.median() > 0.0 ? traced.median() / untraced.median() - 1.0 : 0.0,
             "ratio");
  out.report["untraced_latency_ms_p50"] = untraced.median();
  out.report["traced_latency_ms_p50"] = traced.median();
  out.samples("untraced_latency_ms", untraced.size());
  out.samples("traced_latency_ms", traced.size());
  service_layer_metrics(records, count, stats, out);
  const double start = now_s();
  record_request_spans(records, count, tracer);
  out.report["span_record_ms_after_run"] = since_s(start) * 1e3;
}

/// End-to-end metrics shared by both serve workloads.
void serve_metrics(const std::vector<Record>& records, std::size_t count,
                   const Checked& checked, double slo_ms, const SetUp& setup,
                   double window_rss_mb, Outcome& out) {
  const Samples latency = latencies(records, count);
  Samples solve_ms;
  std::uint64_t slo_met = 0;
  std::uint64_t full_ok = 0;
  std::map<std::uint64_t, double> ratio_by_base;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = records[i];
    if (i == 0 || rec.due < first) first = rec.due;
    last = std::max(last, rec.done);
    if (!checked.full_ok[i]) continue;
    ++full_ok;
    ratio_by_base[rec.base] = checked.ratio[i];
    if ((rec.done - rec.due) * 1e3 <= slo_ms) ++slo_met;
    if (!rec.cache_hit && !rec.coalesced) solve_ms.add(rec.solve_s * 1e3);
  }
  const double window = last - first;
  double ratio_sum = 0.0;
  for (const auto& [base, ratio] : ratio_by_base) ratio_sum += ratio;
  out.metric("solve_ms_p50", solve_ms.median(), "ms");
  out.metric("solve_ms_p90", solve_ms.quantile(0.9), "ms");
  // The service solves each request on one thread (lane width 1), so its
  // solves are the sequential baseline here.
  out.metric("seq_solve_ms_p50", solve_ms.median(), "ms");
  out.metric("slo_met_frac",
             count > 0 ? static_cast<double>(slo_met) / static_cast<double>(count) : 0.0,
             "ratio");
  out.metric("throughput_rps", window > 0.0 ? static_cast<double>(full_ok) / window : 0.0,
             "1/s");
  out.metric("makespan_over_lb",
             ratio_by_base.empty() ? 0.0
                                   : ratio_sum / static_cast<double>(ratio_by_base.size()),
             "ratio");
  out.metric("setup_s", setup.median_s, "s");
  out.metric("peak_rss_mb", window_rss_mb, "MB");
  // Latency percentiles, due (online) or send (batch) to completion. They
  // are reported here and in traced runs, and not gated: on shared vCPUs
  // they follow the host's scheduling more than the program.
  out.report["latency_ms_p50"] = latency.median();
  out.report["latency_ms_p90"] = latency.quantile(0.9);
  out.report["latency_ms_p99"] = latency.quantile(0.99);
  out.samples("solve_ms", solve_ms.size());
  out.samples("latency_ms", latency.size());
  out.samples("makespan_over_lb", ratio_by_base.size());
  out.samples("setup_s", static_cast<std::size_t>(setup.rounds));
}

/// Layer probes that run after the service is gone: the PTAS replay on the
/// T-thread `executor` and the standalone cache replay.
void offline_layers(const std::vector<Instance>& replay, const std::vector<Instance>& stream,
                    const Settings& settings, unsigned shards, pcmax::Executor& executor,
                    Tracer& tracer, Outcome& out) {
  measure_ptas_layers(replay, kEpsilon, executor, settings.seconds / 2, tracer, out);
  measure_cache_layers(stream, kEpsilon, shard_cache_capacity(shards), tracer, out);
}

void report_service(const pcmax::ServiceOptions& options, Outcome& out) {
  out.report["epsilon"] = kEpsilon;
  out.report["machines"] = kMachines;
  out.report["jobs"] = kJobs;
  out.report["shards"] = options.shards;
  out.report["workers"] = options.workers;
  out.report["lane_width"] = options.lane_width;
  out.report["queue_capacity"] = static_cast<std::uint64_t>(options.queue_capacity);
  out.report["cache_capacity"] = static_cast<std::uint64_t>(options.cache_capacity);
}

/// Zipf sampler over pool ranks; rank r has weight 1 / r^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0.0;
    for (std::size_t r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(pcmax::Xoshiro256StarStar& rng) const {
    const double u = pcmax::uniform_real01(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Sleeps until the steady clock reaches `due`; spins only for the last
/// stretch a sleep would overshoot. A generator that spun all the time would
/// keep its vCPU busy, and busy vCPUs are the ones the host preempts.
void wait_until(double due) {
  for (;;) {
    const double ahead = due - now_s();
    if (ahead <= 0.0) return;
    if (ahead > 120e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead - 80e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

Outcome run_serve_online(const Settings& settings, Tracer& tracer) {
  Outcome out;
  Service svc;
  svc.options = service_options(settings.threads);
  report_service(svc.options, out);

  std::vector<Instance> bases;
  for (std::size_t i = 0; i < kPoolSize; ++i) bases.push_back(base_instance(settings.seed, i));
  const SetUp setup = set_up(svc);

  // Before the run the pool goes into the cache, the steady state of a
  // service that has been taking this traffic. The service is built by
  // then, so this is not set-up time; it is reported on its own.
  const double prefill_start = now_s();
  {
    std::vector<pcmax::SolveFuture> futures;
    for (const Instance& instance : bases) {
      futures.push_back(svc.service->submit_async(pcmax::SolveRequest(instance)));
    }
    for (const pcmax::SolveFuture& future : futures) future.wait();
  }
  out.report["prefill_s"] = since_s(prefill_start);

  // The pool's ranks in popularity order are a seeded shuffle of the pool.
  pcmax::Xoshiro256StarStar rng(mix(settings.seed, 1));
  std::vector<std::size_t> by_rank(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) by_rank[i] = i;
  for (std::size_t i = kPoolSize; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[static_cast<std::size_t>(pcmax::uniform_int(
                                  rng, 0, static_cast<std::int64_t>(i - 1)))]);
  }
  const Zipf zipf(kPoolSize, kZipfExponent);

  // Arrival schedule: Poisson at the offered rate plus a wave of
  // simultaneous duplicates of a fresh instance every kWavePeriodS.
  const double seconds = settings.seconds;
  const double rate = settings.online_rps;
  const auto waves = static_cast<std::size_t>(seconds / kWavePeriodS);
  const std::size_t capacity =
      static_cast<std::size_t>(rate * seconds * 1.2 + 1000.0) + (waves + 1) * kWaveSize;
  std::vector<Record> records(capacity);
  Completions completions;

  const double start = now_s() + 0.01;
  double next_poisson = 0.0;
  std::size_t next_wave = 0;
  std::size_t count = 0;
  std::uint64_t bursts = 0;
  std::uint64_t fresh = kPoolSize;
  for (;;) {
    const double wave_at = static_cast<double>(next_wave + 1) * kWavePeriodS;
    const bool wave = wave_at <= next_poisson;
    const double at = wave ? wave_at : next_poisson;
    if (at >= seconds) break;
    const int burst = wave ? kWaveSize : 1;
    if (count + static_cast<std::size_t>(burst) > capacity) break;
    // Both requests of a wave are traced or neither: the second of a pair
    // is usually answered from the first one's cache entry.
    const bool traced = traced_request(settings, bursts++);
    const std::uint64_t base = wave ? fresh++ : by_rank[zipf(rng)];
    const Instance base_copy = base < bases.size() ? bases[base] : base_instance(settings.seed, base);
    wait_until(start + at);
    for (int d = 0; d < burst; ++d) {
      Record& rec = records[count];
      rec.base = base;
      rec.perm_seed = rng.next() | 1;
      rec.due = start + at;
      rec.traced = traced;
      Instance request = permuted(base_copy, rec.perm_seed);
      rec.sent = now_s();
      try {
        const pcmax::SolveFuture future =
            svc.service->submit_async(pcmax::SolveRequest(std::move(request)));
        if (traced) rec.submitted = now_s();
        stamp_on_completion(future, records, count, completions);
      } catch (const std::exception&) {
        rec.submit_failed = true;
        completions.count.fetch_add(1, std::memory_order_relaxed);
      }
      ++count;
    }
    if (wave) {
      ++next_wave;
    } else {
      next_poisson += -std::log(1.0 - pcmax::uniform_real01(rng)) / rate;
    }
  }
  drain(completions, count);
  const double window_rss_mb = peak_rss_mb();
  const pcmax::ServiceStats stats = svc.service->stats();
  svc.service.reset();

  const auto executor = pcmax::make_executor("workstealing", settings.threads);
  const std::vector<Reference> references =
      solve_references(records, count, bases, settings.seed, *executor);
  const Checked checked = check_records(records, count, bases, settings.seed, references,
                                        completions, *executor, out);

  const Samples lag = [&] {
    Samples s;
    for (std::size_t i = 0; i < count; ++i) s.add((records[i].sent - records[i].due) * 1e3);
    return s;
  }();
  out.report["offered_rps"] = rate;
  out.report["sent"] = static_cast<std::uint64_t>(count);
  out.report["pool"] = static_cast<std::uint64_t>(kPoolSize);
  out.report["zipf_exponent"] = kZipfExponent;
  out.report["wave_period_s"] = kWavePeriodS;
  out.report["wave_size"] = kWaveSize;
  out.report["slo_ms"] = settings.slo_ms;
  out.report["generator_lag_ms_p99"] = lag.quantile(0.99);
  double busy = 0.0;
  for (std::size_t i = 0; i < count; ++i) busy += records[i].solve_s;
  out.report["worker_busy_share"] =
      busy / (seconds * static_cast<double>(svc.options.workers));
  Samples pool_ms;
  Samples wave_ms;
  for (std::size_t i = 0; i < count; ++i) {
    if (records[i].done == 0.0) continue;
    (records[i].base < kPoolSize ? pool_ms : wave_ms).add((records[i].done - records[i].due) * 1e3);
  }

  out.report["generator_lag_ms_p95"] = lag.quantile(0.95);
  out.report["latency_ms_p99_pool_requests"] = pool_ms.quantile(0.99);
  out.report["latency_ms_p99_wave_requests"] = wave_ms.quantile(0.99);
  out.report["wave_request_share"] =
      count > 0 ? static_cast<double>(wave_ms.size()) / static_cast<double>(count) : 0.0;
  out.report["cache_hits"] = stats.cache.hits;
  out.report["cache_misses"] = stats.cache.misses;

  // An open loop that fell behind its schedule measured the generator, not
  // the service: more than one request in twenty went out later than the
  // whole latency limit.
  if (lag.quantile(0.95) > settings.slo_ms) {
    out.fail("generator lag p95 " + std::to_string(lag.quantile(0.95)) +
             " ms exceeds the latency limit; the open loop did not hold its schedule");
  }

  if (!settings.trace) {
    serve_metrics(records, count, checked, settings.slo_ms, setup, window_rss_mb, out);
    return out;
  }

  serve_traced_metrics(records, count, stats, tracer, out);
  std::vector<Instance> replay;
  for (std::uint64_t b = kPoolSize; b < fresh; ++b) replay.push_back(base_instance(settings.seed, b));
  replay.insert(replay.end(), bases.begin(), bases.end());
  std::vector<Instance> stream;
  for (std::size_t i = 0; i < count && stream.size() < 50'000; ++i) {
    stream.push_back(request_instance(bases, records[i], settings.seed));
  }
  offline_layers(replay, stream, settings, svc.options.shards, *executor, tracer, out);
  return out;
}

Outcome run_serve_batch(const Settings& settings, Tracer& tracer) {
  Outcome out;
  Service svc;
  svc.options = service_options(settings.threads);
  report_service(svc.options, out);
  const std::uint64_t seed = mix(settings.seed, 3);
  const std::size_t window = kBatchWindowPerWorker * svc.options.workers;
  const SetUp setup = set_up(svc);

  const double seconds = settings.seconds;
  std::vector<pcmax::SolveFuture> in_flight(window);
  // Continuations write into records while the loop appends, so the vector
  // must never reallocate: the loop stops at its capacity.
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(kBatchMaxRps * seconds) + 1000);
  Completions completions;
  const std::vector<Instance> no_bases;

  const double start = now_s();
  std::size_t count = 0;
  while (since_s(start) < seconds && count < records.capacity()) {
    pcmax::SolveFuture& slot = in_flight[count % window];
    if (slot.valid()) slot.wait();  // harvest in submission order
    const double now = now_s();
    const bool traced = traced_request(settings, count);
    records.emplace_back();
    Record& rec = records.back();
    rec.base = count;
    rec.due = now;
    rec.sent = now;
    rec.traced = traced;
    try {
      slot = svc.service->submit_async(pcmax::SolveRequest(base_instance(seed, count)));
      if (traced) rec.submitted = now_s();
      stamp_on_completion(slot, records, count, completions);
    } catch (const std::exception&) {
      rec.submit_failed = true;
      slot = pcmax::SolveFuture();
      completions.count.fetch_add(1, std::memory_order_relaxed);
    }
    ++count;
  }
  drain(completions, count);
  in_flight.clear();
  const double window_rss_mb = peak_rss_mb();
  const pcmax::ServiceStats stats = svc.service->stats();
  svc.service.reset();

  const auto executor = pcmax::make_executor("workstealing", settings.threads);
  const std::vector<Reference> references =
      solve_references(records, count, no_bases, seed, *executor);
  const Checked checked = check_records(records, count, no_bases, seed, references,
                                        completions, *executor, out);

  out.report["window"] = static_cast<std::uint64_t>(window);
  out.report["sent"] = static_cast<std::uint64_t>(count);
  out.report["slo_ms"] = settings.slo_ms;
  out.report["cache_evictions"] = stats.cache.evictions;
  out.report["cache_misses"] = stats.cache.misses;

  if (!settings.trace) {
    serve_metrics(records, count, checked, settings.slo_ms, setup, window_rss_mb, out);
    return out;
  }

  serve_traced_metrics(records, count, stats, tracer, out);
  std::vector<Instance> stream;
  for (std::size_t i = 0; i < count && stream.size() < 50'000; ++i) {
    stream.push_back(base_instance(seed, records[i].base));
  }
  offline_layers(stream, stream, settings, svc.options.shards, *executor, tracer, out);
  return out;
}

}  // namespace perfbench
