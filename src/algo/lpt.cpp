#include "algo/lpt.hpp"

#include <algorithm>
#include <numeric>

#include "algo/list_scheduling.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

std::vector<int> sort_jobs_lpt(const Instance& instance, std::span<const int> jobs) {
  std::vector<int> order(jobs.begin(), jobs.end());
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (instance.time(a) != instance.time(b)) {
      return instance.time(a) > instance.time(b);
    }
    return a < b;
  });
  return order;
}

void lpt_onto(const Instance& instance, std::span<const int> jobs, Schedule& schedule) {
  const std::vector<int> order = sort_jobs_lpt(instance, jobs);
  list_schedule_onto(instance, order, schedule);
}

SolverResult LptSolver::solve_impl(const Instance& instance,
                                   const SolveContext& /*context*/) {
  Stopwatch sw;
  Schedule schedule(instance.machines());
  std::vector<int> jobs(static_cast<std::size_t>(instance.jobs()));
  std::iota(jobs.begin(), jobs.end(), 0);
  lpt_onto(instance, jobs, schedule);
  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();
  return result;
}

}  // namespace pcmax
