// Exhaustive optimal solver for tiny instances — the ground truth the test
// suite checks every other solver against.
#pragma once

#include "core/solver.hpp"

namespace pcmax {

/// Tries every assignment of jobs to machines (with machine-symmetry
/// breaking and a running-makespan prune). Exponential: intended for
/// n <= ~15 only, enforced via `max_jobs`.
class BruteForceSolver final : public Solver {
 public:
  /// `max_jobs` guards against accidentally exponential calls.
  explicit BruteForceSolver(int max_jobs = 16);

  [[nodiscard]] std::string name() const override { return "BruteForce"; }
 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  int max_jobs_;
};

/// Convenience: the optimal makespan of a tiny instance.
Time brute_force_optimum(const Instance& instance);

/// Exhaustive optimal solver for tiny capacity-restricted instances
/// (ProblemVariant::kCapacity). Deliberately does NOT use the
/// min(m, B)-machine reduction of core/variant.hpp: it enumerates raw
/// assignments onto all m machines and prunes branches that would activate
/// more than B machines — the differential tests check the reduction against
/// this independent reference.
class CapacityBruteForceSolver final : public Solver {
 public:
  explicit CapacityBruteForceSolver(int max_jobs = 16);

  [[nodiscard]] std::string name() const override {
    return "CapacityBruteForce";
  }
 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  int max_jobs_;
};

/// Convenience: the optimal makespan of a tiny capacity-restricted instance.
Time capacity_brute_force_optimum(const Instance& instance);

}  // namespace pcmax
