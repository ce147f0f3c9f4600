#include "algo/list_scheduling.hpp"

#include <numeric>
#include <queue>
#include <vector>

#include "util/stopwatch.hpp"

namespace pcmax {

void list_schedule_onto(const Instance& instance, std::span<const int> order,
                        Schedule& schedule) {
  // A min-heap of (load, machine) finds the next available machine in
  // O(log m) per job; ties break toward the lower machine index so results
  // are deterministic and match the paper's "first machine with min load".
  using Entry = std::pair<Time, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    heap.emplace(schedule.load(instance, machine), machine);
  }
  for (int job : order) {
    auto [load, machine] = heap.top();
    heap.pop();
    schedule.assign(machine, job);
    heap.emplace(load + instance.time(job), machine);
  }
}

SolverResult ListSchedulingSolver::solve_impl(const Instance& instance,
                                              const SolveContext& /*context*/) {
  Stopwatch sw;
  Schedule schedule(instance.machines());
  std::vector<int> order(static_cast<std::size_t>(instance.jobs()));
  std::iota(order.begin(), order.end(), 0);
  list_schedule_onto(instance, order, schedule);
  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();
  return result;
}

}  // namespace pcmax
