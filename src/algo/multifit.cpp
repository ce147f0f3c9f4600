#include "algo/multifit.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "algo/lpt.hpp"
#include "core/bounds.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

bool first_fit_decreasing(const Instance& instance, Time capacity, Schedule* out) {
  std::vector<int> jobs(static_cast<std::size_t>(instance.jobs()));
  std::iota(jobs.begin(), jobs.end(), 0);
  const std::vector<int> order = sort_jobs_lpt(instance, jobs);

  Schedule schedule(instance.machines());
  std::vector<Time> loads(static_cast<std::size_t>(instance.machines()), 0);
  for (int job : order) {
    const Time t = instance.time(job);
    bool placed = false;
    for (std::size_t machine = 0; machine < loads.size(); ++machine) {
      if (loads[machine] + t <= capacity) {
        loads[machine] += t;
        schedule.assign(static_cast<int>(machine), job);
        placed = true;
        break;
      }
    }
    if (!placed) return false;
  }
  if (out != nullptr) *out = std::move(schedule);
  return true;
}

MultifitSolver::MultifitSolver(int iterations) : iterations_(iterations) {
  PCMAX_REQUIRE(iterations >= 1, "MULTIFIT needs at least one iteration");
}

SolverResult MultifitSolver::solve_impl(const Instance& instance,
                                        const SolveContext& context) {
  Stopwatch sw;
  const CancellationToken cancel = context.effective_token();
  // Coffman et al.'s search window: CL = max(avg load, max t) is a valid
  // lower bound; CU = max(2*avg, max t) always admits an FFD packing.
  const Time avg = (instance.total_time() + instance.machines() - 1) /
                   instance.machines();
  Time lo = std::max(avg, instance.max_time());
  Time hi = std::max(2 * avg, instance.max_time());

  std::optional<Schedule> best;
  // The upper endpoint is guaranteed feasible; keep it as the fallback.
  {
    Schedule s(instance.machines());
    const bool ok = first_fit_decreasing(instance, hi, &s);
    PCMAX_CHECK(ok, "FFD must succeed at the MULTIFIT upper bound");
    best = std::move(s);
  }

  for (int it = 0; it < iterations_ && lo < hi; ++it) {
    // Anytime: stop between iterations, keeping the best packing so far
    // (at worst the guaranteed-feasible upper-bound packing).
    if (cancel.valid() && cancel.should_stop()) break;
    const Time capacity = lo + (hi - lo) / 2;
    Schedule s(instance.machines());
    if (first_fit_decreasing(instance, capacity, &s)) {
      best = std::move(s);
      hi = capacity;
    } else {
      lo = capacity + 1;
    }
  }

  SolverResult result;
  result.schedule = std::move(*best);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();
  result.stats["iterations"] = static_cast<double>(iterations_);
  result.stats["final_capacity"] = static_cast<double>(hi);
  return result;
}

}  // namespace pcmax
