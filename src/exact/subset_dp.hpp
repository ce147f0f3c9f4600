// Pseudo-polynomial exact solver for two and three machines.
//
// P2 || C_max is NUMBER-PARTITION in disguise: a subset-sum bitset over the
// total processing time finds the most balanced split in O(n * total / 64).
// For m = 3 a 2-dimensional reachability DP over (load_1, load_2) does the
// same in O(n * total^2) bits. Both certify optimality and serve as an
// independent cross-check of the branch-and-bound solver in the test suite
// (different algorithm, same answers).
#pragma once

#include "core/solver.hpp"

namespace pcmax {

/// Exact solver for instances with 2 or 3 machines via subset-sum DP.
class SubsetDpSolver final : public Solver {
 public:
  /// `max_total_time` bounds the DP size (bits for m=2, bits^2 for m=3).
  explicit SubsetDpSolver(Time max_total_time = 1'000'000);

  [[nodiscard]] std::string name() const override { return "SubsetDP"; }

 private:
  /// Throws InvalidArgumentError for m > 3 or totals above the budget.
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  Time max_total_time_;
};

}  // namespace pcmax
