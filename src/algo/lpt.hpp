// Longest Processing Time (LPT) — Graham's 4/3-approximation (paper §I).
//
// LS applied to the jobs sorted in non-increasing processing time order.
// Guarantees makespan <= (4/3 - 1/(3m)) * OPT.
#pragma once

#include <span>
#include <vector>

#include "core/solver.hpp"

namespace pcmax {

/// Returns `jobs` sorted by non-increasing processing time; ties break by
/// ascending job index for determinism.
std::vector<int> sort_jobs_lpt(const Instance& instance, std::span<const int> jobs);

/// LPT-schedules the given subset of jobs onto `schedule`, respecting loads
/// already present (used by the PTAS to place short jobs, paper Lines 41-51).
void lpt_onto(const Instance& instance, std::span<const int> jobs, Schedule& schedule);

/// The classic LPT solver over all jobs.
class LptSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "LPT"; }

 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;
};

}  // namespace pcmax
