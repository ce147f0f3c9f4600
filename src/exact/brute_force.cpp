#include "exact/brute_force.hpp"

#include <algorithm>
#include <vector>

#include "algo/lpt.hpp"
#include "core/bounds.hpp"
#include "core/variant.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

struct BruteSearch {
  const Instance& instance;
  std::vector<int> order;        // jobs, non-increasing time (stronger prunes)
  std::vector<Time> loads;
  std::vector<int> assignment;   // assignment[depth] = machine of order[depth]
  std::vector<int> best_assignment;
  Time best_makespan;
  Time lower_bound;
  // At most this many machines may be non-empty (capacity brute force);
  // machines() for the classic search, where the cap is vacuous.
  int active_cap;
  int active = 0;

  explicit BruteSearch(const Instance& inst, int active_machine_cap)
      : instance(inst), active_cap(active_machine_cap) {
    std::vector<int> jobs(static_cast<std::size_t>(inst.jobs()));
    for (int j = 0; j < inst.jobs(); ++j) jobs[static_cast<std::size_t>(j)] = j;
    order = sort_jobs_lpt(inst, jobs);
    loads.assign(static_cast<std::size_t>(inst.machines()), 0);
    assignment.assign(order.size(), -1);
    best_assignment.assign(order.size(), -1);
    // Start from the trivially feasible bound (all jobs on one machine)
    // rather than the list-scheduling UB so the capacity search stays
    // independent of the min(m, B) reduction it is used to verify.
    best_makespan = inst.total_time() + 1;
    lower_bound = makespan_lower_bound(inst);
  }

  void dfs(std::size_t depth, Time current_makespan) {
    if (current_makespan >= best_makespan) return;  // cannot improve
    if (depth == order.size()) {
      best_makespan = current_makespan;
      best_assignment = assignment;
      return;
    }
    const Time t = instance.time(order[depth]);
    Time previous_load = -1;
    for (std::size_t machine = 0; machine < loads.size(); ++machine) {
      if (loads[machine] == previous_load) continue;  // symmetric machines
      previous_load = loads[machine];
      const bool activates = loads[machine] == 0;
      if (activates && active == active_cap) continue;  // capacity exhausted
      if (activates) ++active;
      loads[machine] += t;
      assignment[depth] = static_cast<int>(machine);
      dfs(depth + 1, std::max(current_makespan, loads[machine]));
      loads[machine] -= t;
      if (activates) --active;
      if (best_makespan == lower_bound) return;  // provably optimal already
    }
  }
};

}  // namespace

BruteForceSolver::BruteForceSolver(int max_jobs) : max_jobs_(max_jobs) {
  PCMAX_REQUIRE(max_jobs >= 1, "max_jobs must be positive");
}

SolverResult BruteForceSolver::solve_impl(const Instance& instance,
                                          const SolveContext& /*context*/) {
  PCMAX_REQUIRE(instance.jobs() <= max_jobs_,
                "instance too large for brute force (raise max_jobs deliberately)");
  Stopwatch sw;
  BruteSearch search(instance, instance.machines());
  search.dfs(0, 0);
  PCMAX_CHECK(search.best_assignment[0] >= 0, "brute force found no schedule");

  Schedule schedule(instance.machines());
  for (std::size_t d = 0; d < search.order.size(); ++d) {
    schedule.assign(search.best_assignment[d], search.order[d]);
  }
  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.proven_optimal = true;
  result.seconds = sw.elapsed_seconds();
  return result;
}

Time brute_force_optimum(const Instance& instance) {
  return BruteForceSolver().solve(instance).makespan;
}

CapacityBruteForceSolver::CapacityBruteForceSolver(int max_jobs)
    : max_jobs_(max_jobs) {
  PCMAX_REQUIRE(max_jobs >= 1, "max_jobs must be positive");
}

SolverResult CapacityBruteForceSolver::solve_impl(const Instance& instance,
                                                  const SolveContext& /*context*/) {
  PCMAX_REQUIRE(instance.variant() == ProblemVariant::kCapacity,
                "CapacityBruteForce requires a capacity-restricted instance");
  PCMAX_REQUIRE(instance.jobs() <= max_jobs_,
                "instance too large for brute force (raise max_jobs deliberately)");
  Stopwatch sw;
  // The cap is the raw constraint "at most B machines non-empty" (bounded by
  // m since there are only m machines) — not the reduced machine count.
  const int cap = static_cast<int>(
      std::min<Time>(instance.capacity(), instance.machines()));
  BruteSearch search(instance, cap);
  search.dfs(0, 0);
  PCMAX_CHECK(search.best_assignment[0] >= 0, "brute force found no schedule");

  Schedule schedule(instance.machines());
  for (std::size_t d = 0; d < search.order.size(); ++d) {
    schedule.assign(search.best_assignment[d], search.order[d]);
  }
  validate_variant_schedule(instance, schedule);
  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.proven_optimal = true;
  result.seconds = sw.elapsed_seconds();
  result.notes["variant"] = variant_name(instance.variant());
  return result;
}

Time capacity_brute_force_optimum(const Instance& instance) {
  return CapacityBruteForceSolver().solve(instance).makespan;
}

}  // namespace pcmax
