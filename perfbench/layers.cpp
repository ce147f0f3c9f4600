#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "algo/lpt.hpp"
#include "algo/ptas/bisection.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/ptas.hpp"
#include "algo/ptas/reconstruct.hpp"
#include "core/bounds.hpp"
#include "core/fingerprint.hpp"
#include "core/solver_registry.hpp"
#include "service/result_cache.hpp"
#include "service/service_types.hpp"

namespace perfbench {
namespace {

using pcmax::DpAtTarget;
using pcmax::DpTableMode;
using pcmax::Instance;
using pcmax::Time;

constexpr double kCoverageFloor = 0.8;

/// Stage totals over every replayed instance, seconds unless noted.
struct StageTotals {
  std::uint64_t solves = 0;
  std::uint64_t probes = 0;
  double solve = 0.0;  ///< untraced parallel-ptas solves of the same instances
  double bounds = 0.0;
  double rounding = 0.0;
  double config_enum = 0.0;
  double dp = 0.0;
  double dp_seq = 0.0;
  double reconstruct = 0.0;
  double fill = 0.0;
  double configs = 0.0;
  double entries = 0.0;
  double scans = 0.0;
  double levels = 0.0;
};

/// Times `fn` and records it as a span named `name` under `parent`.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t op, Fn&& fn) {
  const double start = now_s();
  fn();
  const double end = now_s();
  tracer.add(name, start, end, parent, op);
  return end - start;
}

/// One probe at `target`, stage by stage, exactly as run_dp_at does it.
DpAtTarget replay_probe(const Instance& instance, Time target, int k,
                        DpTableMode mode, pcmax::Executor& executor,
                        std::uint64_t root, std::uint64_t op, Tracer& tracer,
                        StageTotals& totals, Outcome& out) {
  const pcmax::DpLimits limits;
  const ScopedSpan probe(tracer, "ptas.probe", root, op);
  const pcmax::RoundingParams params = pcmax::RoundingParams::make(target, k);
  pcmax::RoundedInstance rounded;
  totals.rounding += timed(tracer, "ptas.rounding", probe.id(), op, [&] {
    const pcmax::JobPartition partition = pcmax::partition_jobs(instance, params);
    rounded = pcmax::round_long_jobs(instance, partition, params);
  });
  std::optional<pcmax::StateSpace> space;
  pcmax::ConfigSet configs;
  totals.config_enum += timed(tracer, "ptas.config_enum", probe.id(), op, [&] {
    space.emplace(rounded.class_count, limits.max_table_entries);
    configs = pcmax::enumerate_configs(rounded, *space, limits.max_configs);
  });

  pcmax::ParallelDpOptions parallel;
  parallel.executor = &executor;
  parallel.variant = pcmax::ParallelDpVariant::kBucketed;
  parallel.table_mode = mode;
  std::optional<pcmax::DpRun> run;
  totals.dp += timed(tracer, "ptas.dp", probe.id(), op, [&] {
    run.emplace(pcmax::dp_parallel(rounded, *space, configs, parallel));
  });

  pcmax::DpOptions sequential;
  sequential.mode = mode;
  std::int32_t seq_needed = 0;
  totals.dp_seq += timed(tracer, "ptas.dp_seq", probe.id(), op, [&] {
    seq_needed = pcmax::dp_bottom_up(rounded, *space, configs, sequential)
                     .machines_needed;
  });
  if (seq_needed != run->machines_needed) {
    out.fail("parallel and sequential DP disagree at target " +
             std::to_string(target));
  }

  ++totals.probes;
  totals.configs += static_cast<double>(configs.count());
  totals.entries += static_cast<double>(run->stats.entries_computed);
  totals.scans += static_cast<double>(run->stats.config_scans);
  totals.levels += static_cast<double>(run->stats.levels);
  return DpAtTarget{std::move(rounded), std::move(*space), std::move(configs),
                    std::move(*run)};
}

/// Replays one solve (paper Alg. 1: bisection, final probe, reconstruction)
/// and returns its schedule.
pcmax::Schedule replay_solve(const Instance& instance, int k,
                             pcmax::Executor& executor, std::uint64_t op,
                             Tracer& tracer, StageTotals& totals, Outcome& out) {
  const ScopedSpan root(tracer, "bench.replay", 0, op);
  Time lb = 0;
  Time ub = 0;
  totals.bounds += timed(tracer, "core.bounds", root.id(), op, [&] {
    lb = pcmax::makespan_lower_bound(instance);
    ub = pcmax::makespan_upper_bound(instance);
  });
  while (lb < ub) {
    const Time target = lb + (ub - lb) / 2;
    const DpAtTarget at =
        replay_probe(instance, target, k, DpTableMode::kValuesOnly, executor,
                     root.id(), op, tracer, totals, out);
    const bool feasible = at.run.machines_needed != pcmax::DpTable::kInfeasible &&
                          at.run.machines_needed <= instance.machines();
    if (feasible) {
      ub = target;
    } else {
      lb = target + 1;
    }
  }
  const DpAtTarget final_probe =
      replay_probe(instance, lb, k, DpTableMode::kValuesAndChoices, executor,
                   root.id(), op, tracer, totals, out);

  pcmax::Schedule schedule(instance.machines());
  totals.reconstruct += timed(tracer, "ptas.reconstruct", root.id(), op, [&] {
    schedule = pcmax::reconstruct_long_schedule(instance, final_probe);
  });
  totals.fill += timed(tracer, "ptas.fill", root.id(), op, [&] {
    std::vector<char> is_long(static_cast<std::size_t>(instance.jobs()), 0);
    for (const auto& jobs : final_probe.rounded.class_jobs) {
      for (const int job : jobs) is_long[static_cast<std::size_t>(job)] = 1;
    }
    std::vector<int> short_jobs;
    for (int j = 0; j < instance.jobs(); ++j) {
      if (!is_long[static_cast<std::size_t>(j)]) short_jobs.push_back(j);
    }
    pcmax::lpt_onto(instance, short_jobs, schedule);
  });
  ++totals.solves;
  return schedule;
}

/// Median round trip of an empty parallel_for over `executor`, microseconds.
double fork_join_us(pcmax::Executor& executor, Tracer& tracer) {
  const ScopedSpan span(tracer, "parallel.fork_join", 0, 0);
  const std::size_t width = executor.concurrency();
  Samples rounds;
  for (int i = 0; i < 2000; ++i) {
    const double start = now_s();
    executor.parallel_for(width, [](std::size_t) {});
    rounds.add((now_s() - start) * 1e6);
  }
  return rounds.median();
}

}  // namespace

void measure_ptas_layers(const std::vector<Instance>& instances, double epsilon,
                         pcmax::Executor& executor, double budget_s, Tracer& tracer,
                         Outcome& out) {
  const int k = pcmax::accuracy_k(epsilon);
  pcmax::SolverBuild build;
  build.epsilon = epsilon;
  build.executor = &executor;
  const auto solver = pcmax::SolverRegistry::global().create("parallel-ptas", build);

  StageTotals totals;
  const double start = now_s();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (i > 0 && since_s(start) >= budget_s) break;
    const Instance& instance = instances[i];
    const std::uint64_t op = i + 1;
    const double solve_start = now_s();
    const pcmax::SolverResult result = solver->solve(instance);
    totals.solve += now_s() - solve_start;
    const pcmax::Schedule replayed =
        replay_solve(instance, k, executor, op, tracer, totals, out);
    if (!(replayed == result.schedule)) {
      out.fail("replayed schedule differs from parallel-ptas on replay " +
               std::to_string(op));
    }
  }

  const double probes = static_cast<double>(std::max<std::uint64_t>(1, totals.probes));
  const double solves = static_cast<double>(std::max<std::uint64_t>(1, totals.solves));
  const double width = static_cast<double>(executor.concurrency());
  const double stage_sum = totals.bounds + totals.rounding + totals.config_enum +
                           totals.dp + totals.reconstruct + totals.fill;
  const double coverage = totals.solve > 0.0 ? stage_sum / totals.solve : 0.0;
  const double fork_join = fork_join_us(executor, tracer);

  out.metric("core.bounds_us", totals.bounds * 1e6 / solves, "us/solve");
  out.metric("ptas.probes", static_cast<double>(totals.probes) / solves, "probes/solve");
  out.metric("ptas.rounding_us", totals.rounding * 1e6 / probes, "us/probe");
  out.metric("ptas.config_enum_us", totals.config_enum * 1e6 / probes, "us/probe");
  out.metric("ptas.configs", totals.configs / probes, "configs/probe");
  out.metric("ptas.dp_ms", totals.dp * 1e3 / probes, "ms/probe");
  out.metric("ptas.dp_seq_ms", totals.dp_seq * 1e3 / probes, "ms/probe");
  out.metric("ptas.dp_entries", totals.entries / probes, "entries/probe");
  out.metric("ptas.dp_config_scans", totals.scans / probes, "scans/probe");
  out.metric("ptas.dp_scan_rate",
             totals.dp > 0.0 ? totals.scans / (totals.dp * 1e6) : 0.0, "scans/us");
  out.metric("ptas.dp_parallel_efficiency",
             totals.dp > 0.0 ? totals.dp_seq / (width * totals.dp) : 0.0, "ratio");
  out.metric("ptas.reconstruct_us", totals.reconstruct * 1e6 / solves, "us/solve");
  out.metric("ptas.fill_us", totals.fill * 1e6 / solves, "us/solve");
  out.metric("ptas.dp_share", totals.solve > 0.0 ? totals.dp / totals.solve : 0.0,
             "ratio");
  out.metric("ptas.replay_coverage", coverage, "ratio");
  out.metric("parallel.fork_join_us", fork_join, "us");
  out.metric("parallel.levels", totals.levels / probes, "levels/probe");
  out.metric("parallel.sync_share_est",
             totals.dp > 0.0 ? totals.levels * fork_join / (totals.dp * 1e6) : 0.0,
             "ratio");
  out.samples("ptas.replay_solves", totals.solves);
  out.samples("ptas.replay_probes", totals.probes);
  out.report["replay_coverage_floor"] = kCoverageFloor;
  if (coverage < kCoverageFloor) {
    out.fail("ptas.replay_coverage " + std::to_string(coverage) +
             " is below the floor " + std::to_string(kCoverageFloor));
  }
}

void measure_cache_layers(const std::vector<Instance>& stream, double epsilon,
                          std::size_t capacity, Tracer& tracer, Outcome& out) {
  std::vector<pcmax::CanonicalInstance> canonical;
  std::vector<pcmax::Fingerprint> keys;
  canonical.reserve(stream.size());
  keys.reserve(stream.size());
  double canonicalize = 0.0;
  {
    const ScopedSpan span(tracer, "core.canonicalize", 0, 0);
    for (const Instance& instance : stream) {
      const double start = now_s();
      canonical.emplace_back(instance);
      keys.push_back(pcmax::request_fingerprint(canonical.back(), epsilon));
      canonicalize += now_s() - start;
    }
  }

  pcmax::ResultCache cache(capacity);
  double lookup = 0.0;
  double insert = 0.0;
  std::uint64_t inserts = 0;
  {
    const ScopedSpan span(tracer, "service.cache_replay", 0, 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Instance& key_instance = canonical[i].instance();
      const double start = now_s();
      const bool hit = cache.lookup(keys[i], key_instance).has_value();
      const double mid = now_s();
      lookup += mid - start;
      if (hit) continue;
      pcmax::CacheEntry entry{key_instance,
                              std::vector<int>(static_cast<std::size_t>(key_instance.jobs()), 0),
                              0, "ptas", false};
      const double insert_start = now_s();
      cache.insert(keys[i], std::move(entry));
      insert += now_s() - insert_start;
      ++inserts;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, keys.size()));
  out.metric("core.canonicalize_us", canonicalize * 1e6 / n, "us/request");
  out.metric("service.cache_lookup_us", lookup * 1e6 / n, "us/lookup");
  out.metric("service.cache_insert_us",
             inserts > 0 ? insert * 1e6 / static_cast<double>(inserts) : 0.0,
             "us/insert");
  out.samples("service.cache_replay_lookups", keys.size());
  out.samples("service.cache_replay_inserts", inserts);
  out.report["cache_replay_capacity"] = static_cast<std::uint64_t>(capacity);
}

std::size_t shard_cache_capacity(unsigned shards) {
  return std::max<std::size_t>(1, pcmax::ServiceOptions{}.cache_capacity /
                                      std::max(1u, shards));
}

}  // namespace perfbench
