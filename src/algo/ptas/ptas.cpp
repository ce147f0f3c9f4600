#include "algo/ptas/ptas.hpp"

#include <algorithm>
#include <cmath>

#include "algo/ptas/reconstruct.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

int accuracy_k(double epsilon) {
  PCMAX_REQUIRE(epsilon > 0.0, "epsilon must be positive");
  const double inv = 1.0 / epsilon;
  PCMAX_REQUIRE(inv < 64.0, "epsilon too small: k = ceil(1/eps) must stay below 64");
  return std::max(1, static_cast<int>(std::ceil(inv)));
}

std::string dp_engine_name(DpEngine engine) {
  switch (engine) {
    case DpEngine::kBottomUp: return "bottom-up";
    case DpEngine::kParallelScan: return "parallel-scan";
    case DpEngine::kParallelBucketed: return "parallel-bucketed";
    case DpEngine::kSpmd: return "spmd";
  }
  throw InvalidArgumentError("unknown DP engine");
}

PtasSolver::PtasSolver(PtasOptions options)
    : options_(std::move(options)), k_(accuracy_k(options_.epsilon)) {
  const bool needs_executor = options_.engine == DpEngine::kParallelScan ||
                              options_.engine == DpEngine::kParallelBucketed;
  PCMAX_REQUIRE(!needs_executor || options_.executor != nullptr,
                "parallel DP engines require an executor");
  PCMAX_REQUIRE(options_.engine != DpEngine::kSpmd || options_.spmd_threads >= 1,
                "spmd engine needs at least one thread");
}

std::string PtasSolver::name() const {
  return options_.engine == DpEngine::kBottomUp ? "PTAS" : "ParallelPTAS";
}

DpBackendFn PtasSolver::make_backend(DpTableMode mode,
                                     const CancellationToken& cancel) const {
  if (options_.engine == DpEngine::kBottomUp) {
    DpOptions dp_options;
    dp_options.kernel = options_.kernel;
    dp_options.mode = mode;
    dp_options.cancel = cancel;
    return [dp_options](const RoundedInstance& rounded, const StateSpace& space,
                        const ConfigSet& configs) {
      return dp_bottom_up(rounded, space, configs, dp_options);
    };
  }
  ParallelDpOptions dp_options;
  switch (options_.engine) {
    case DpEngine::kParallelScan:
      dp_options.variant = ParallelDpVariant::kScanPerLevel;
      break;
    case DpEngine::kParallelBucketed:
      dp_options.variant = ParallelDpVariant::kBucketed;
      break;
    case DpEngine::kSpmd:
      dp_options.variant = ParallelDpVariant::kSpmd;
      break;
    default:
      throw InvalidArgumentError("unknown DP engine");
  }
  dp_options.executor = options_.executor;  // ignored by kSpmd
  dp_options.schedule = options_.schedule;
  dp_options.spmd_threads = options_.spmd_threads;
  dp_options.kernel = options_.kernel;
  dp_options.table_mode = mode;
  dp_options.cancel = cancel;
  return [dp_options](const RoundedInstance& rounded, const StateSpace& space,
                      const ConfigSet& configs) {
    return dp_parallel(rounded, space, configs, dp_options);
  };
}

SolveContext PtasSolver::legacy_context(bool* used_legacy_cancel) const {
  // Prefer the limits-level token when both legacy fields are set — that is
  // what the pre-v2 code did (solve_with_trace only copied options_.cancel
  // into limits when limits.cancel was unset).
  const CancellationToken& legacy = options_.limits.cancel.valid()
                                        ? options_.limits.cancel
                                        : options_.cancel;
  *used_legacy_cancel = legacy.valid();
  return SolveContext::with_token(legacy);
}

PtasResult PtasSolver::solve_impl(const Instance& instance,
                                  const SolveContext& context) {
  Stopwatch sw;
  const ContextScopes scopes(context);
  const CancellationToken stop = context.effective_token();

  // Search probes only read OPT(N), so they run values-only (halved table
  // memory and write traffic); the final run at T* must keep choices for
  // the reconstruction walk.
  const DpBackendFn probe_backend =
      make_backend(DpTableMode::kValuesOnly, stop);
  const DpBackendFn final_backend =
      make_backend(DpTableMode::kValuesAndChoices, stop);

  // The token rides along with the DP budgets, which already reach every
  // probe site (the bisection and the reconstruction probe).
  // The incumbent board, when the context carries one, clamps the search's
  // initial upper bound (read once — see DpLimits::incumbent).
  DpLimits limits = options_.limits;
  limits.cancel = stop;
  if (limits.incumbent == nullptr) limits.incumbent = context.incumbent;

  // Search for the target makespan: the paper's bisection (Alg. 1
  // Lines 5-30).
  BisectionResult bisection =
      bisect_target_makespan(instance, k_, probe_backend, limits);

  // Re-run the DP at the final target and reconstruct (Lines 26, 31-51).
  // The final T* equals the last feasible probe, so this probe is feasible
  // by the bisection invariant (UB is only ever lowered to feasible values).
  Stopwatch probe_clock;
  const DpAtTarget at =
      run_dp_at(instance, bisection.t_star, k_, final_backend, limits);
  const double final_probe_seconds = probe_clock.elapsed_seconds();
  Schedule schedule = reconstruct_full_schedule(instance, at);

  // Record the reconstruction probe in the trace: it is DP work that the
  // parallel algorithm parallelises exactly like the bisection probes, so
  // the simulated-multicore replay must see it.
  {
    BisectionIteration final_probe;
    final_probe.target = bisection.t_star;
    final_probe.feasible = true;
    final_probe.counts = at.rounded.class_count;
    final_probe.table_size = at.space.size();
    final_probe.config_count = at.configs.count();
    final_probe.entries_computed = at.run.stats.entries_computed;
    final_probe.config_scans = at.run.stats.config_scans;
    final_probe.configs_pruned = at.run.stats.configs_pruned;
    final_probe.simd_blocks = at.run.stats.simd_blocks;
    final_probe.scalar_fallbacks = at.run.stats.scalar_fallbacks;
    final_probe.dp_seconds = final_probe_seconds;
    bisection.trace.push_back(std::move(final_probe));
  }

  PtasResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();

  // Aggregate statistics over all probes (including the reconstruction one).
  double dp_seconds = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t scans = 0;
  std::uint64_t pruned = 0;
  std::uint64_t simd_blocks = 0;
  std::uint64_t scalar_fallbacks = 0;
  std::size_t max_table = at.space.size();
  for (const BisectionIteration& it : bisection.trace) {
    dp_seconds += it.dp_seconds;
    entries += it.entries_computed;
    scans += it.config_scans;
    pruned += it.configs_pruned;
    simd_blocks += it.simd_blocks;
    scalar_fallbacks += it.scalar_fallbacks;
    max_table = std::max(max_table, it.table_size);
  }
  result.stats["k"] = k_;
  // The last trace entry is the reconstruction probe, not a bisection step.
  result.stats["iterations"] = static_cast<double>(bisection.trace.size() - 1);
  result.stats["t_star"] = static_cast<double>(bisection.t_star);
  result.stats["lb0"] = static_cast<double>(bisection.lb0);
  result.stats["ub0"] = static_cast<double>(bisection.ub0);
  result.stats["ub_start"] = static_cast<double>(bisection.ub_start);
  result.stats["incumbent_clamped"] = bisection.incumbent_clamped ? 1.0 : 0.0;
  result.stats["dp_seconds"] = dp_seconds;
  result.stats["entries_computed"] = static_cast<double>(entries);
  result.stats["config_scans"] = static_cast<double>(scans);
  result.stats["configs_pruned"] = static_cast<double>(pruned);
  result.stats["simd_blocks"] = static_cast<double>(simd_blocks);
  result.stats["scalar_fallbacks"] = static_cast<double>(scalar_fallbacks);
  result.stats["max_table_size"] = static_cast<double>(max_table);
  result.stats["final_long_jobs"] = static_cast<double>(at.rounded.total_long_jobs);
  result.stats["final_levels"] = static_cast<double>(at.space.max_level() + 1);

  // The kernel the runs actually used (post resolve_dp_kernel), for result
  // consumers and the metrics export.
  const char* kernel_used = dp_kernel_name(at.run.stats.kernel);
  result.notes["dp_kernel"] = kernel_used;
  if (obs::Metrics* metrics = obs::current()) {
    metrics->note("dp.kernel", kernel_used);
  }

  if (options_.keep_trace) {
    result.bisection = std::move(bisection);
  } else {
    result.bisection.t_star = bisection.t_star;
    result.bisection.lb0 = bisection.lb0;
    result.bisection.ub0 = bisection.ub0;
    result.bisection.ub_start = bisection.ub_start;
    result.bisection.incumbent_clamped = bisection.incumbent_clamped;
  }
  return result;
}

PtasResult PtasSolver::solve_with_trace(const Instance& instance) {
  bool used_legacy_cancel = false;
  const SolveContext context = legacy_context(&used_legacy_cancel);
  PtasResult result = solve_impl(instance, context);
  if (used_legacy_cancel) {
    note_deprecated_field(result, "PtasOptions.cancel", "SolveContext.cancel");
  }
  return result;
}

PtasResult PtasSolver::solve_with_trace(const Instance& instance,
                                        const SolveContext& context) {
  return solve_impl(instance, context);
}

SolverResult PtasSolver::solve(const Instance& instance) {
  return solve_with_trace(instance);
}

SolverResult PtasSolver::solve(const Instance& instance,
                               const SolveContext& context) {
  return solve_impl(instance, context);
}

}  // namespace pcmax
