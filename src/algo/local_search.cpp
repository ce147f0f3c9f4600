#include "algo/local_search.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// Mutable view of a schedule as per-machine job lists + loads.
struct WorkingSchedule {
  std::vector<std::vector<int>> jobs;
  std::vector<Time> loads;

  WorkingSchedule(const Instance& instance, const Schedule& schedule) {
    const int m = schedule.machines();
    jobs.resize(static_cast<std::size_t>(m));
    loads.assign(static_cast<std::size_t>(m), 0);
    for (int machine = 0; machine < m; ++machine) {
      jobs[static_cast<std::size_t>(machine)] = schedule.jobs_on(machine);
      loads[static_cast<std::size_t>(machine)] =
          schedule.load(instance, machine);
    }
  }

  [[nodiscard]] int critical_machine() const {
    return static_cast<int>(
        std::max_element(loads.begin(), loads.end()) - loads.begin());
  }

  [[nodiscard]] Schedule to_schedule() const {
    Schedule schedule(static_cast<int>(jobs.size()));
    for (std::size_t machine = 0; machine < jobs.size(); ++machine) {
      for (int job : jobs[machine]) {
        schedule.assign(static_cast<int>(machine), job);
      }
    }
    return schedule;
  }
};

/// Tries to move one job from the critical machine to a machine where the
/// resulting pair of loads is strictly better. Returns true on success.
bool try_move(const Instance& instance, WorkingSchedule& ws) {
  const auto critical = static_cast<std::size_t>(ws.critical_machine());
  const Time critical_load = ws.loads[critical];
  for (std::size_t slot = 0; slot < ws.jobs[critical].size(); ++slot) {
    const int job = ws.jobs[critical][slot];
    const Time t = instance.time(job);
    for (std::size_t target = 0; target < ws.loads.size(); ++target) {
      if (target == critical) continue;
      // Strict improvement of the *local* maximum: the receiving machine
      // must stay below the critical load.
      if (ws.loads[target] + t < critical_load) {
        ws.jobs[critical].erase(ws.jobs[critical].begin() +
                                static_cast<std::ptrdiff_t>(slot));
        ws.jobs[target].push_back(job);
        ws.loads[critical] -= t;
        ws.loads[target] += t;
        return true;
      }
    }
  }
  return false;
}

/// Tries to swap a job on the critical machine with a strictly shorter job
/// elsewhere such that both machines end below the old critical load.
bool try_swap(const Instance& instance, WorkingSchedule& ws) {
  const auto critical = static_cast<std::size_t>(ws.critical_machine());
  const Time critical_load = ws.loads[critical];
  for (std::size_t slot_a = 0; slot_a < ws.jobs[critical].size(); ++slot_a) {
    const int job_a = ws.jobs[critical][slot_a];
    const Time t_a = instance.time(job_a);
    for (std::size_t other = 0; other < ws.loads.size(); ++other) {
      if (other == critical) continue;
      for (std::size_t slot_b = 0; slot_b < ws.jobs[other].size(); ++slot_b) {
        const int job_b = ws.jobs[other][slot_b];
        const Time t_b = instance.time(job_b);
        if (t_b >= t_a) continue;  // must shrink the critical machine
        const Time new_critical = critical_load - t_a + t_b;
        const Time new_other = ws.loads[other] - t_b + t_a;
        if (new_critical < critical_load && new_other < critical_load) {
          ws.jobs[critical][slot_a] = job_b;
          ws.jobs[other][slot_b] = job_a;
          ws.loads[critical] = new_critical;
          ws.loads[other] = new_other;
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

LocalSearchStats improve_schedule(const Instance& instance, Schedule& schedule,
                                  std::uint64_t max_rounds,
                                  const CancellationToken& cancel) {
  schedule.validate(instance);
  WorkingSchedule ws(instance, schedule);
  LocalSearchStats stats;
  const bool armed = cancel.valid();
  while (stats.rounds < max_rounds) {
    // Anytime: stop between rounds, keeping the improvements so far. The
    // flag-only poll keeps the round loop cheap; deadline promotion happens
    // at the next full check elsewhere (a round is short).
    if (armed && (stats.rounds % 64 == 0 ? cancel.should_stop()
                                         : cancel.cancel_requested())) {
      break;
    }
    ++stats.rounds;
    if (try_move(instance, ws)) {
      ++stats.moves;
      continue;
    }
    if (try_swap(instance, ws)) {
      ++stats.swaps;
      continue;
    }
    break;  // local optimum of the move+swap neighbourhood
  }
  schedule = ws.to_schedule();
  schedule.validate(instance);
  return stats;
}

LocalSearchSolver::LocalSearchSolver(Solver& inner) : inner_(inner) {}

std::string LocalSearchSolver::name() const { return inner_.name() + "+LS*"; }

SolverResult LocalSearchSolver::solve_impl(const Instance& instance,
                                           const SolveContext& context) {
  Stopwatch sw;
  SolverResult result = inner_.solve(instance, context.without_scopes());
  const LocalSearchStats stats =
      improve_schedule(instance, result.schedule, kLocalSearchRounds,
                       context.effective_token());
  const Time improved = result.schedule.makespan(instance);
  PCMAX_CHECK(improved <= result.makespan, "local search made the schedule worse");
  result.makespan = improved;
  result.seconds = sw.elapsed_seconds();
  result.stats["ls_moves"] = static_cast<double>(stats.moves);
  result.stats["ls_swaps"] = static_cast<double>(stats.swaps);
  result.stats["ls_rounds"] = static_cast<double>(stats.rounds);
  return result;
}

}  // namespace pcmax
