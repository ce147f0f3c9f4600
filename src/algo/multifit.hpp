// MULTIFIT (Coffman, Garey & Johnson) — the bin-packing-based baseline the
// paper cites in §I.A as the precursor of the Hochbaum-Shmoys PTAS.
//
// Binary-search a capacity C; at each step, First Fit Decreasing packs the
// jobs into machines of capacity C. After k iterations the makespan is at
// most (1.22 + 2^-k) * OPT (Coffman et al.'s original bound; later analysis
// tightened the constant to 13/11).
#pragma once

#include "core/solver.hpp"

namespace pcmax {

/// First Fit Decreasing placement: jobs sorted by non-increasing time, each
/// placed on the first machine where it fits within `capacity`. Returns true
/// (and fills `out`) iff all jobs fit on `instance.machines()` machines.
bool first_fit_decreasing(const Instance& instance, Time capacity, Schedule* out);

/// MULTIFIT solver with a fixed number of binary-search iterations.
class MultifitSolver final : public Solver {
 public:
  /// `iterations` is the binary-search depth k (default 10 ≈ 2^-10 slack).
  /// Anytime: a stopped context token ends the binary search between
  /// iterations, keeping the best packing found — the guaranteed-feasible
  /// FFD packing at the upper bound always exists, so a valid schedule is
  /// returned even when stopped before the first iteration.
  explicit MultifitSolver(int iterations = 10);

  [[nodiscard]] std::string name() const override { return "MULTIFIT"; }

 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  int iterations_;
};

}  // namespace pcmax
