#include "algo/ptas/bisection.hpp"

#include <algorithm>

#include "core/bounds.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

Time clamp_upper_bound_to_incumbent(const DpLimits& limits, Time lb, Time ub,
                                    bool* clamped) {
  *clamped = false;
  if (limits.incumbent == nullptr || !limits.incumbent->has_value()) return ub;
  const Time best = limits.incumbent->best();
  if (best >= ub) return ub;
  *clamped = true;
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPortfolioBoundTightenings);
  }
  // best >= lb always holds for a realisable makespan (lb <= OPT <= best);
  // the max() is belt-and-braces against a caller publishing junk.
  return std::max(lb, best);
}

DpAtTarget run_dp_at(const Instance& instance, Time target, int k,
                     const DpBackendFn& dp, const DpLimits& limits) {
  // One "probe" span covers rounding + config enumeration + the DP itself.
  const std::uint64_t probe_t0 = obs::monotonic_ns();
  const obs::ScopedTimer probe_timer(obs::Timer::kBisectionProbe);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kBisectionProbes);
  }

  fault_hit("bisection.probe");
  if (limits.cancel.valid()) limits.cancel.check();

  const RoundingParams params = RoundingParams::make(target, k);
  const JobPartition partition = partition_jobs(instance, params);
  RoundedInstance rounded = round_long_jobs(instance, partition, params);
  std::vector<int> counts = rounded.class_count;
  StateSpace space(std::move(counts), limits.max_table_entries);
  ConfigSet configs =
      enumerate_configs(rounded, space, limits.max_configs, limits.cancel);
  DpRun run = dp(rounded, space, configs);

  if (obs::Metrics* metrics = obs::current()) {
    metrics->add_span("bisection.probe", 0, probe_t0, obs::monotonic_ns());
  }
  return DpAtTarget{std::move(rounded), std::move(space), std::move(configs),
                    std::move(run)};
}

BisectionResult bisect_target_makespan(const Instance& instance, int k,
                                       const DpBackendFn& dp,
                                       const DpLimits& limits) {
  BisectionResult result;
  result.lb0 = makespan_lower_bound(instance);
  result.ub0 = makespan_upper_bound(instance);

  Time lb = result.lb0;
  Time ub = clamp_upper_bound_to_incumbent(limits, lb, result.ub0,
                                           &result.incumbent_clamped);
  result.ub_start = ub;
  while (lb < ub) {
    const Time target = lb + (ub - lb) / 2;
    Stopwatch sw;
    const DpAtTarget at = run_dp_at(instance, target, k, dp, limits);
    const double seconds = sw.elapsed_seconds();

    const bool feasible =
        at.run.machines_needed != DpTable::kInfeasible &&
        at.run.machines_needed <= instance.machines();

    BisectionIteration iteration;
    iteration.target = target;
    iteration.feasible = feasible;
    iteration.counts = at.rounded.class_count;
    iteration.table_size = at.space.size();
    iteration.config_count = at.configs.count();
    iteration.entries_computed = at.run.stats.entries_computed;
    iteration.config_scans = at.run.stats.config_scans;
    iteration.configs_pruned = at.run.stats.configs_pruned;
    iteration.simd_blocks = at.run.stats.simd_blocks;
    iteration.scalar_fallbacks = at.run.stats.scalar_fallbacks;
    iteration.dp_seconds = seconds;
    result.trace.push_back(std::move(iteration));

    if (feasible) {
      ub = target;  // a schedule within T exists (paper Line 28)
    } else {
      lb = target + 1;  // no schedule of length T exists (paper Line 30)
    }
  }
  PCMAX_CHECK(lb == ub, "bisection must close the interval");
  result.t_star = lb;
  return result;
}

}  // namespace pcmax
