#include "exact/subset_dp.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// m = 1: everything on the single machine.
SolverResult solve_one_machine(const Instance& instance) {
  Schedule schedule(1);
  for (int j = 0; j < instance.jobs(); ++j) schedule.assign(0, j);
  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = instance.total_time();
  result.proven_optimal = true;
  return result;
}

/// m = 2: bitset subset-sum; reconstruct via per-job snapshots.
SolverResult solve_two_machines(const Instance& instance) {
  const auto total = static_cast<std::size_t>(instance.total_time());
  const int n = instance.jobs();

  // reachable[s] after processing the first j jobs; snapshots enable the
  // traceback (job j is on machine 0 in the witness iff removing it keeps
  // the remaining target reachable).
  std::vector<std::vector<std::uint64_t>> snapshots;
  snapshots.reserve(static_cast<std::size_t>(n) + 1);
  const std::size_t words = total / 64 + 1;
  std::vector<std::uint64_t> reachable(words, 0);
  reachable[0] = 1;  // sum 0
  snapshots.push_back(reachable);

  auto set_has = [&](const std::vector<std::uint64_t>& bits, std::size_t s) {
    return (bits[s / 64] >> (s % 64)) & 1u;
  };

  for (int j = 0; j < n; ++j) {
    const auto t = static_cast<std::size_t>(instance.time(j));
    // reachable |= reachable << t
    const std::size_t word_shift = t / 64;
    const std::size_t bit_shift = t % 64;
    for (std::size_t w = words; w-- > 0;) {
      std::uint64_t shifted = 0;
      if (w >= word_shift) {
        shifted = reachable[w - word_shift] << bit_shift;
        if (bit_shift != 0 && w > word_shift) {
          shifted |= reachable[w - word_shift - 1] >> (64 - bit_shift);
        }
      }
      reachable[w] |= shifted;
    }
    snapshots.push_back(reachable);
  }

  // Best achievable machine-0 load: the reachable sum closest to total/2
  // from above gives the optimal makespan.
  std::size_t best = total;
  for (std::size_t s = (total + 1) / 2; s <= total; ++s) {
    if (set_has(reachable, s)) {
      best = s;
      break;
    }
  }

  // Traceback: walk jobs backwards deciding membership in the machine-0 set.
  Schedule schedule(2);
  std::size_t remaining = best;
  for (int j = n - 1; j >= 0; --j) {
    const auto t = static_cast<std::size_t>(instance.time(j));
    if (remaining >= t &&
        set_has(snapshots[static_cast<std::size_t>(j)], remaining - t)) {
      schedule.assign(0, j);
      remaining -= t;
    } else {
      schedule.assign(1, j);
    }
  }
  PCMAX_CHECK(remaining == 0, "subset-sum traceback failed");

  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = static_cast<Time>(best);
  result.proven_optimal = true;
  return result;
}

/// m = 3: reachability over (load_0, load_1); load_2 is implied. To keep the
/// state quadratic rather than cubic we only track loads up to total.
SolverResult solve_three_machines(const Instance& instance) {
  const auto total = static_cast<std::size_t>(instance.total_time());
  const int n = instance.jobs();
  const std::size_t width = total + 1;

  // reachable[a * width + b] = 1 iff the first j jobs can be split with
  // machine 0 at a and machine 1 at b. Snapshots for traceback.
  std::vector<std::vector<char>> snapshots;
  snapshots.reserve(static_cast<std::size_t>(n) + 1);
  std::vector<char> reachable(width * width, 0);
  reachable[0] = 1;
  snapshots.push_back(reachable);

  for (int j = 0; j < n; ++j) {
    const auto t = static_cast<std::size_t>(instance.time(j));
    std::vector<char> next(width * width, 0);
    const std::vector<char>& prev = snapshots.back();
    for (std::size_t a = 0; a <= total; ++a) {
      const std::size_t row = a * width;
      for (std::size_t b = 0; a + b <= total; ++b) {
        if (!prev[row + b]) continue;
        next[row + b] = 1;                              // job on machine 2
        if (a + t <= total) next[row + t * width + b] = 1;  // machine 0
        if (b + t <= total) next[row + b + t] = 1;          // machine 1
      }
    }
    snapshots.push_back(std::move(next));
  }

  // Find the (a, b) minimising max(a, b, total - a - b).
  const std::vector<char>& final_set = snapshots.back();
  std::size_t best_a = 0;
  std::size_t best_b = 0;
  std::size_t best_makespan = total;
  for (std::size_t a = 0; a <= total; ++a) {
    for (std::size_t b = 0; a + b <= total; ++b) {
      if (!final_set[a * width + b]) continue;
      const std::size_t c = total - a - b;
      const std::size_t makespan = std::max({a, b, c});
      if (makespan < best_makespan) {
        best_makespan = makespan;
        best_a = a;
        best_b = b;
      }
    }
  }

  // Traceback through the snapshots.
  Schedule schedule(3);
  std::size_t a = best_a;
  std::size_t b = best_b;
  for (int j = n - 1; j >= 0; --j) {
    const auto t = static_cast<std::size_t>(instance.time(j));
    const std::vector<char>& prev = snapshots[static_cast<std::size_t>(j)];
    if (a >= t && prev[(a - t) * width + b]) {
      schedule.assign(0, j);
      a -= t;
    } else if (b >= t && prev[a * width + (b - t)]) {
      schedule.assign(1, j);
      b -= t;
    } else {
      PCMAX_CHECK(prev[a * width + b], "3-machine DP traceback failed");
      schedule.assign(2, j);
    }
  }
  PCMAX_CHECK(a == 0 && b == 0, "3-machine DP traceback incomplete");

  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = static_cast<Time>(best_makespan);
  result.proven_optimal = true;
  return result;
}

}  // namespace

SubsetDpSolver::SubsetDpSolver(Time max_total_time)
    : max_total_time_(max_total_time) {
  PCMAX_REQUIRE(max_total_time >= 1, "budget must be positive");
}

SolverResult SubsetDpSolver::solve_impl(const Instance& instance,
                                        const SolveContext& /*context*/) {
  PCMAX_REQUIRE(instance.machines() <= 3,
                "SubsetDpSolver supports at most 3 machines");
  if (instance.total_time() > max_total_time_) {
    throw ResourceLimitError(resource_limit_message(
        "subset-DP total processing time",
        static_cast<std::uint64_t>(max_total_time_),
        static_cast<std::uint64_t>(instance.total_time())));
  }
  if (instance.machines() == 3) {
    // The quadratic table holds total^2 snapshot bytes per job.
    const auto demand = static_cast<std::uint64_t>(instance.total_time()) *
                        static_cast<std::uint64_t>(instance.total_time());
    if (demand > static_cast<std::uint64_t>(max_total_time_)) {
      throw ResourceLimitError(resource_limit_message(
          "3-machine subset-DP table cells (total^2)",
          static_cast<std::uint64_t>(max_total_time_), demand));
    }
  }

  Stopwatch sw;
  SolverResult result =
      instance.machines() == 1   ? solve_one_machine(instance)
      : instance.machines() == 2 ? solve_two_machines(instance)
                                 : solve_three_machines(instance);
  result.schedule.validate(instance);
  result.seconds = sw.elapsed_seconds();
  return result;
}

}  // namespace pcmax
