// List Scheduling (LS) — Graham's 2-approximation (paper §I).
//
// Jobs are taken from a list in order; each job goes to the machine that
// becomes available first (the currently least-loaded machine). Guarantees
// makespan <= (2 - 1/m) * OPT.
#pragma once

#include <span>

#include "core/solver.hpp"

namespace pcmax {

/// Assigns the jobs in `order` (a permutation or subset of job indices) to
/// the least-loaded machine in turn, starting from the loads already present
/// in `schedule`. This is the primitive both LS and LPT are built on, and
/// the PTAS uses it to append short jobs to the long-job schedule.
void list_schedule_onto(const Instance& instance, std::span<const int> order,
                        Schedule& schedule);

/// List scheduling over jobs in their natural input order (the "arbitrarily
/// ordered list" of the paper).
class ListSchedulingSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "LS"; }

 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;
};

}  // namespace pcmax
