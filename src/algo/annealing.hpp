// Simulated annealing for P || C_max.
//
// A metaheuristic baseline for users who want better-than-LPT schedules
// without the PTAS's DP cost: start from LPT, propose random single-job
// moves and pair swaps, accept worsening proposals with probability
// exp(-delta / temperature) under a geometric cooling schedule, and keep
// the best schedule seen. Deterministic for a fixed seed. (Not part of the
// paper's evaluation; compared against the paper's algorithms in
// bench/baselines_shootout.)
#pragma once

#include <cstdint>

#include "core/solver.hpp"

namespace pcmax {

/// Annealing parameters.
struct AnnealingOptions {
  std::uint64_t seed = 1;
  int iterations = 20'000;       ///< proposal count
  double initial_temp = 0.0;     ///< 0 = auto (max job time / 2)
  double cooling = 0.9995;       ///< geometric factor per iteration
  double swap_probability = 0.4; ///< fraction of proposals that are swaps
};

/// The simulated-annealing solver. Polls the context token every ~512
/// proposals. Anytime: a stop ends the run keeping the best schedule seen
/// (never worse than LPT).
class AnnealingSolver final : public Solver {
 public:
  explicit AnnealingSolver(AnnealingOptions options = {});

  [[nodiscard]] std::string name() const override { return "SA"; }

 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  AnnealingOptions options_;
};

}  // namespace pcmax
