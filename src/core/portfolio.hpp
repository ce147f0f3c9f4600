// Portfolio racing engine — run several solvers on the same instance and
// keep the best schedule, SAT/MIP-portfolio style.
//
// The racers cooperate through a shared IncumbentBoard (core/solve_context):
//
//  * Tier 0 (the O(n log n) heuristics — LPT, MULTIFIT, LS, LDM) runs first,
//    synchronously, seeding the board. They cost microseconds and give every
//    heavy racer a certified upper bound before it starts.
//  * The heavy racers (PTAS, parallel PTAS, MILP, exact) then race, each
//    reading the board ONCE at its start: the PTAS clamps its bisection
//    interval, the MILP/exact searches tighten their prune cutoff. Each
//    publishes improvements back.
//  * A racer that CERTIFIES optimality — proven_optimal, a makespan equal to
//    the instance lower bound, or a notes["certified_value"] matching the
//    board — cancels the remaining racers through a controller-owned token
//    (linked under the caller's, so the caller's token is never mutated).
//
// Determinism: read-once board snapshots make every racer a pure function of
// (instance, build, start bound), and each racer records the bound it
// actually used — rerunning the winner standalone with a fresh board seeded
// to that bound reproduces its schedule byte for byte. With
// max_concurrent == 1 the whole race is deterministic: racers run in list
// order on the calling thread, and the winner is the minimum makespan with
// ties broken by list order.
//
// Failure isolation: each racer runs under fault site "portfolio.racer" and
// every board publish under "portfolio.incumbent"; a racer that throws a
// resource-shaped error is marked failed and the survivors decide the race.
// If EVERY racer fails the portfolio falls back to a bare LPT run, so — like
// ResilientSolver — solve() never throws for resource reasons.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/solve_context.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"

namespace pcmax {

/// Configuration of the portfolio race.
struct PortfolioOptions {
  /// Registry names of the racers, in priority order (ties in makespan go
  /// to the earliest). Empty = auto-selection: lpt + multifit always, ptas
  /// always, parallel-ptas when `build.executor` is set, milp when the
  /// instance is small enough for its B&B (see milp_max_*), subset-dp when
  /// m <= 3 and the total processing time fits its DP budget.
  std::vector<std::string> racers;

  /// Shared construction parameters handed to every racer's factory.
  SolverBuild build;

  /// Concurrency of the heavy tier: 0 = one thread per heavy racer;
  /// 1 = sequential in list order on the calling thread (fully
  /// deterministic); k = at most k racer threads at a time.
  unsigned max_concurrent = 0;

  /// Registry to resolve racer names against; nullptr = the global one.
  const SolverRegistry* registry = nullptr;

  /// Auto-selection thresholds for the "milp" racer (its LP-based B&B is
  /// only competitive on small instances).
  int milp_max_jobs = 12;
  int milp_max_machines = 4;
};

/// Per-racer outcome, in racer-list order.
struct RacerReport {
  std::string name;        ///< registry name
  std::string status;      ///< "won", "ok", "failed: <why>", "cancelled"
  Time makespan = 0;       ///< 0 when the racer produced no schedule
  double seconds = 0.0;
  /// Board snapshot when the racer started (IncumbentBoard::kNone before
  /// any tier-0 seed). Rerunning the racer standalone with a fresh board
  /// seeded to this value reproduces its result exactly.
  Time start_bound = IncumbentBoard::kNone;
  bool certified = false;  ///< this racer ended the race with a proof
};

/// Result extension carrying the full race picture.
struct PortfolioResult : SolverResult {
  std::string winner;  ///< registry name of the winning racer
  std::vector<RacerReport> racers;
};

/// The racing solver. Reusable and thread-safe for concurrent solve()
/// calls (all per-race state is local).
class PortfolioSolver final : public Solver {
 public:
  explicit PortfolioSolver(PortfolioOptions options = {});

  [[nodiscard]] std::string name() const override { return "Portfolio"; }

  /// Like solve(), but returns the extended result with per-racer reports.
  PortfolioResult race(const Instance& instance, const SolveContext& context);

  [[nodiscard]] const PortfolioOptions& options() const { return options_; }

 private:
  /// Never throws for resource reasons (see file comment).
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  PortfolioOptions options_;
};

/// The racer names auto-selection would pick for `instance` under
/// `options` (exposed for tests and the CLI's dry-run listing).
std::vector<std::string> select_racers(const Instance& instance,
                                       const PortfolioOptions& options);

}  // namespace pcmax
