// Local-search improvement for P || C_max schedules.
//
// A polish pass usable after any constructive heuristic: repeatedly try to
// reduce the makespan by (a) moving one job off a critical machine, or
// (b) swapping a job on a critical machine with a shorter job elsewhere.
// Terminates at a local optimum of the move+swap neighbourhood, so the
// result is never worse than the input schedule. Classic complement to LPT
// (this is not in the paper; it is the natural "practical" baseline a
// production library ships alongside it).
#pragma once

#include <cstdint>

#include "core/solver.hpp"
#include "util/deadline.hpp"

namespace pcmax {

/// Statistics of one local-search run.
struct LocalSearchStats {
  std::uint64_t moves = 0;
  std::uint64_t swaps = 0;
  std::uint64_t rounds = 0;
};

/// Default round cap of improve_schedule.
inline constexpr std::uint64_t kLocalSearchRounds = 10'000;

/// Improves `schedule` in place until move+swap local optimality or until
/// `max_rounds` passes. Returns the statistics of the run. Anytime: a
/// cancelled `cancel` token stops between rounds, keeping the improvements
/// made so far — the result is never worse than the input.
LocalSearchStats improve_schedule(const Instance& instance, Schedule& schedule,
                                  std::uint64_t max_rounds = kLocalSearchRounds,
                                  const CancellationToken& cancel = {});

/// A solver decorator: runs an inner heuristic, then polishes its schedule.
/// Both stages run under the context; a stopped token ends the polish
/// between rounds, keeping the improvements made so far.
class LocalSearchSolver final : public Solver {
 public:
  /// Wraps `inner` (non-owning; must outlive this solver).
  explicit LocalSearchSolver(Solver& inner);

  [[nodiscard]] std::string name() const override;

 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  Solver& inner_;
};

}  // namespace pcmax
