// Common solver interface and result type shared by every algorithm in the
// library (LS, LPT, MULTIFIT, the PTAS, the exact solvers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/solve_context.hpp"

namespace pcmax {

/// Result of running a solver on an instance.
struct SolverResult {
  Schedule schedule = Schedule(1);  ///< a complete, valid schedule
  Time makespan = 0;           ///< its makespan (cached)
  double seconds = 0.0;        ///< wall-clock time the solve took
  bool proven_optimal = false; ///< true iff the solver certified optimality

  /// Free-form per-solver statistics (DP table sizes, B&B nodes, ...).
  std::map<std::string, double> stats;

  /// Free-form textual provenance ("algorithm_used", "degradation_reason",
  /// "limit_reason", ...). Keeps non-numeric facts out of `stats`.
  std::map<std::string, std::string> notes;
};

/// Abstract base class of all schedulers for P || C_max.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Short name for reports ("LS", "LPT", "PTAS", "ParallelPTAS", "IP", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Solves `instance` under `context` (deadline, cancellation, shared
  /// incumbent board, optional metrics/fault scopes) and returns a complete
  /// schedule with statistics. Installs the context's scopes once, then
  /// runs the solver's solve_impl. Solvers that can stop early poll
  /// `context.effective_token()`; the rest ignore it.
  SolverResult solve(const Instance& instance, const SolveContext& context = {});

 protected:
  /// The solver itself. Implementations fill `seconds` with their own wall
  /// time. The context's scopes are already installed: pass
  /// `context.without_scopes()` to inner solvers.
  virtual SolverResult solve_impl(const Instance& instance,
                                  const SolveContext& context) = 0;
};

}  // namespace pcmax
