#include "algo/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/lpt.hpp"
#include "core/bounds.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// Annealing state: assignment vector plus incrementally maintained loads.
struct State {
  std::vector<int> assignment;  // machine per job
  std::vector<Time> loads;

  [[nodiscard]] Time makespan() const {
    return *std::max_element(loads.begin(), loads.end());
  }
};

}  // namespace

AnnealingSolver::AnnealingSolver(AnnealingOptions options) : options_(options) {
  PCMAX_REQUIRE(options_.iterations >= 0, "iterations must be non-negative");
  PCMAX_REQUIRE(options_.cooling > 0.0 && options_.cooling < 1.0,
                "cooling factor must lie in (0, 1)");
  PCMAX_REQUIRE(options_.swap_probability >= 0.0 && options_.swap_probability <= 1.0,
                "swap probability must lie in [0, 1]");
}

SolverResult AnnealingSolver::solve_impl(const Instance& instance,
                                         const SolveContext& context) {
  Stopwatch sw;
  const int m = instance.machines();
  const int n = instance.jobs();

  // Start from LPT: a strong, cheap incumbent.
  const SolverResult lpt = LptSolver().solve(instance);
  State state;
  state.assignment = lpt.schedule.assignment(instance);
  state.loads = lpt.schedule.loads(instance);

  State best = state;
  Time best_makespan = state.makespan();
  const Time lower_bound = makespan_lower_bound(instance);

  Xoshiro256StarStar rng(options_.seed);
  double temperature = options_.initial_temp > 0.0
                           ? options_.initial_temp
                           : static_cast<double>(instance.max_time()) / 2.0;
  std::uint64_t accepted = 0;
  std::uint64_t improved = 0;

  Time current_makespan = state.makespan();
  const CancellationToken cancel = context.effective_token();
  const bool armed = cancel.valid();
  for (int it = 0; it < options_.iterations && m > 1; ++it) {
    if (best_makespan == lower_bound) break;  // provably optimal already
    // Anytime: a stop keeps the best schedule seen so far.
    if (armed && it % 512 == 0 && cancel.should_stop()) break;

    // Propose: move one job, or swap two jobs between machines.
    const bool is_swap = uniform_real01(rng) < options_.swap_probability;
    const auto job_a = static_cast<std::size_t>(uniform_int(rng, 0, n - 1));
    const int from_a = state.assignment[job_a];
    Time delta_candidate_makespan;

    if (!is_swap) {
      auto to = static_cast<int>(uniform_int(rng, 0, m - 2));
      if (to >= from_a) ++to;  // uniform over machines != from_a
      const Time t = instance.time(static_cast<int>(job_a));
      // Tentatively apply.
      state.loads[static_cast<std::size_t>(from_a)] -= t;
      state.loads[static_cast<std::size_t>(to)] += t;
      delta_candidate_makespan = state.makespan() - current_makespan;
      const double d = static_cast<double>(delta_candidate_makespan);
      if (d <= 0.0 || uniform_real01(rng) < std::exp(-d / temperature)) {
        state.assignment[job_a] = to;
        current_makespan += delta_candidate_makespan;
        ++accepted;
      } else {  // revert
        state.loads[static_cast<std::size_t>(from_a)] += t;
        state.loads[static_cast<std::size_t>(to)] -= t;
      }
    } else {
      const auto job_b = static_cast<std::size_t>(uniform_int(rng, 0, n - 1));
      const int from_b = state.assignment[job_b];
      if (from_a != from_b) {
        const Time t_a = instance.time(static_cast<int>(job_a));
        const Time t_b = instance.time(static_cast<int>(job_b));
        state.loads[static_cast<std::size_t>(from_a)] += t_b - t_a;
        state.loads[static_cast<std::size_t>(from_b)] += t_a - t_b;
        delta_candidate_makespan = state.makespan() - current_makespan;
        const double d = static_cast<double>(delta_candidate_makespan);
        if (d <= 0.0 || uniform_real01(rng) < std::exp(-d / temperature)) {
          std::swap(state.assignment[job_a], state.assignment[job_b]);
          current_makespan += delta_candidate_makespan;
          ++accepted;
        } else {  // revert
          state.loads[static_cast<std::size_t>(from_a)] -= t_b - t_a;
          state.loads[static_cast<std::size_t>(from_b)] -= t_a - t_b;
        }
      }
    }

    if (current_makespan < best_makespan) {
      best = state;
      best_makespan = current_makespan;
      ++improved;
    }
    temperature *= options_.cooling;
  }

  SolverResult result;
  result.schedule = Schedule::from_assignment(m, best.assignment);
  result.makespan = result.schedule.makespan(instance);
  PCMAX_CHECK(result.makespan == best_makespan,
              "incremental makespan bookkeeping diverged");
  PCMAX_CHECK(result.makespan <= lpt.makespan,
              "annealing must never lose to its LPT start");
  result.seconds = sw.elapsed_seconds();
  result.proven_optimal = result.makespan == lower_bound;
  result.stats["accepted"] = static_cast<double>(accepted);
  result.stats["improvements"] = static_cast<double>(improved);
  result.stats["final_temperature"] = temperature;
  return result;
}

}  // namespace pcmax
