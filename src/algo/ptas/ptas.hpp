// Public facade of the (parallel) Hochbaum-Shmoys PTAS.
//
// PtasSolver implements paper Algorithm 1; the choice of DP engine turns it
// into the sequential PTAS (kBottomUp) or the paper's parallel
// approximation algorithm (the parallel engines replace Algorithm 2 with
// Algorithm 3, everything else unchanged — paper §III, last paragraph).
//
// Guarantee: makespan <= (1 + 1/k) * OPT with k = ceil(1/epsilon), i.e. a
// (1+epsilon)-approximation, identical for sequential and parallel engines.
#pragma once

#include <memory>

#include "algo/ptas/bisection.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "core/solver.hpp"
#include "parallel/executor.hpp"

namespace pcmax {

/// Which DP realisation drives the bisection probes.
enum class DpEngine {
  kBottomUp,          ///< sequential full-table fill (speedup baseline)
  kParallelScan,      ///< Algorithm 3, paper-faithful scan per level
  kParallelBucketed,  ///< Algorithm 3 as a chunk-dependency graph, no barrier
  kSpmd,              ///< Algorithm 3 with persistent threads + barrier
};

/// Human-readable engine name.
std::string dp_engine_name(DpEngine engine);

/// Options of the PTAS solver.
struct PtasOptions {
  /// Relative error epsilon > 0; the paper's experiments use 0.3.
  double epsilon = 0.3;
  DpEngine engine = DpEngine::kBottomUp;
  /// Executor for the parallel engines; non-owning, must outlive the solver.
  /// Ignored by sequential engines and by kSpmd.
  Executor* executor = nullptr;
  /// Claim granularity of kParallelScan's per-level loop on the
  /// work-stealing executor: kStatic = auto chunk (~8 claims per worker),
  /// kRoundRobin = single-iteration claims (the default, after the paper's
  /// round-robin construct), kDynamic = claims of the sweep's fixed chunk.
  LoopSchedule schedule = LoopSchedule::kRoundRobin;
  /// Thread count for the kSpmd engine.
  unsigned spmd_threads = 1;
  /// Per-entry kernel. kGlobalConfigs (default) scans a precomputed global
  /// configuration set with the fastest fits-test kernel the host supports
  /// (runtime-dispatched: AVX2, else SWAR); kSwar/kAvx2 force one (an
  /// unsupported kAvx2 degrades to SWAR). kPerEntryEnum re-enumerates C_v
  /// per entry exactly as the paper's Algorithm 3 does, reproducing the
  /// cost profile behind the paper's speedup figures. Results are identical
  /// for every kernel.
  DpKernel kernel = DpKernel::kGlobalConfigs;
  /// Resource budgets for each DP probe.
  DpLimits limits;
  /// When true, the per-iteration bisection trace is copied into the result
  /// (used by the simulated-multicore harness).
  bool keep_trace = false;
  /// DEPRECATED (API v2): pass the stop signal via SolveContext.cancel and
  /// call solve(instance, context) instead. Still honoured by the legacy
  /// solve(instance) path, which stamps a one-time deprecation note into
  /// SolverResult::notes. Semantics unchanged: checked before every probe,
  /// per DP level, and (amortised) inside DP range chunks; the PTAS is
  /// all-or-nothing — on a stop it throws DeadlineExceededError /
  /// CancelledError rather than returning a partial schedule; pair with
  /// ResilientSolver for a graceful-degradation fallback.
  CancellationToken cancel;
};

/// Result extension carrying the bisection trace when requested.
struct PtasResult : SolverResult {
  BisectionResult bisection;
};

/// The (parallel) PTAS solver.
class PtasSolver final : public Solver {
 public:
  explicit PtasSolver(PtasOptions options);

  [[nodiscard]] std::string name() const override;

  /// Legacy (v1) entry point: honours the deprecated PtasOptions.cancel /
  /// DpLimits.cancel fields by lifting them into a SolveContext.
  SolverResult solve(const Instance& instance) override;

  /// API v2 entry point: stop signal, deadline, and incumbent board come
  /// from the context. When the context carries an IncumbentBoard with a
  /// published makespan, the search clamps its initial upper bound to it
  /// (read once, at search start — see DpLimits::incumbent).
  SolverResult solve(const Instance& instance,
                     const SolveContext& context) override;

  /// Like solve(), but returns the extended result with the trace.
  PtasResult solve_with_trace(const Instance& instance);

  /// Context-aware variant of solve_with_trace().
  PtasResult solve_with_trace(const Instance& instance,
                              const SolveContext& context);

  /// k = ceil(1/epsilon) for the configured epsilon.
  [[nodiscard]] int k() const { return k_; }

  /// The options this solver was built with.
  [[nodiscard]] const PtasOptions& options() const { return options_; }

 private:
  /// Builds the DP backend for the configured engine; `mode` selects the
  /// table storage (values-only for search probes, which only read OPT(N);
  /// values+choices for the final reconstruction run). `cancel` is the solve's effective stop
  /// signal (context token; the v1 path lifts the legacy option into it).
  DpBackendFn make_backend(DpTableMode mode,
                           const CancellationToken& cancel) const;

  /// The single implementation behind every public entry point: solve(),
  /// solve(ctx), solve_with_trace(), solve_with_trace(ctx) all land here.
  PtasResult solve_impl(const Instance& instance, const SolveContext& context);

  /// Lifts the deprecated PtasOptions.cancel / DpLimits.cancel fields into
  /// a SolveContext for the v1 entry points; remembers (for this call) which
  /// legacy field was set so the result can carry the deprecation note.
  [[nodiscard]] SolveContext legacy_context(bool* used_legacy_cancel) const;

  PtasOptions options_;
  int k_;
};

/// k = ceil(1/epsilon); throws InvalidArgumentError unless epsilon > 0.
int accuracy_k(double epsilon);

}  // namespace pcmax
