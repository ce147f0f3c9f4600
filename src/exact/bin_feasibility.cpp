#include "exact/bin_feasibility.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "algo/lpt.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// DFS state shared across the recursion.
struct Search {
  const Instance& instance;
  Time capacity;
  const FeasibilitySearchLimits& limits;
  const CancellationToken& cancel;
  FeasibilityStats& stats;
  Stopwatch clock;

  std::vector<int> order;       // job indices, non-increasing time
  std::vector<Time> loads;      // current machine loads
  std::vector<int> chosen;      // chosen[d] = machine of order[d]
  Time remaining = 0;           // total time of jobs not yet placed
  bool budget_exhausted = false;

  // Memo of states proven infeasible: fingerprint of (depth, sorted loads).
  // Two independent 64-bit mixes make accidental collisions (which would
  // wrongly prune a feasible branch) astronomically unlikely; correctness
  // is additionally cross-checked against brute force in the test suite.
  struct U128Hash {
    std::size_t operator()(__uint128_t x) const noexcept {
      const auto hi = static_cast<std::uint64_t>(x >> 64);
      const auto lo = static_cast<std::uint64_t>(x);
      return static_cast<std::size_t>(hi * 0x9e3779b97f4a7c15ULL ^ lo);
    }
  };
  std::unordered_set<__uint128_t, U128Hash> failed;

  explicit Search(const Instance& inst, Time cap,
                  const FeasibilitySearchLimits& lim,
                  const CancellationToken& stop, FeasibilityStats& st)
      : instance(inst), capacity(cap), limits(lim), cancel(stop), stats(st) {
    std::vector<int> jobs(static_cast<std::size_t>(inst.jobs()));
    for (int j = 0; j < inst.jobs(); ++j) jobs[static_cast<std::size_t>(j)] = j;
    order = sort_jobs_lpt(inst, jobs);
    loads.assign(static_cast<std::size_t>(inst.machines()), 0);
    chosen.assign(order.size(), -1);
    remaining = inst.total_time();
  }

  [[nodiscard]] __uint128_t fingerprint(std::size_t depth) const {
    std::vector<Time> sorted = loads;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t h1 = 0x9e3779b97f4a7c15ULL ^ depth;
    std::uint64_t h2 = 0xc2b2ae3d27d4eb4fULL + depth;
    for (Time load : sorted) {
      const auto x = static_cast<std::uint64_t>(load);
      h1 = (h1 ^ x) * 0x100000001b3ULL;
      h2 = (h2 + x) * 0xff51afd7ed558ccdULL;
      h2 ^= h2 >> 33;
    }
    return (static_cast<__uint128_t>(h1) << 64) | h2;
  }

  /// Returns true when a budget has run out (checked cheaply per node).
  /// A cancelled token counts as an exhausted budget: the probe's answer
  /// becomes kUnknown instead of an exception (three-valued semantics).
  bool out_of_budget() {
    if (budget_exhausted) return true;
    if (stats.nodes > limits.max_nodes) {
      budget_exhausted = true;
      return true;
    }
    if (cancel.valid() && cancel.cancel_requested()) {
      budget_exhausted = true;
      return true;
    }
    // The wall clock is comparatively expensive; sample it sparsely (the
    // token's own deadline is promoted to the flag by the same sampling).
    if ((stats.nodes & 0xfff) == 0 &&
        (clock.elapsed_seconds() > limits.max_seconds ||
         (cancel.valid() && cancel.should_stop()))) {
      budget_exhausted = true;
      return true;
    }
    return false;
  }

  /// DFS over jobs in `order` starting at `depth`. Returns true iff a
  /// complete packing was found below this node.
  bool dfs(std::size_t depth) {
    if (depth == order.size()) return true;
    ++stats.nodes;
    if (out_of_budget()) return false;

    // Slack prune: remaining work must fit in the remaining free capacity.
    Time slack = 0;
    for (Time load : loads) slack += capacity - load;
    if (remaining > slack) return false;

    const __uint128_t fp = fingerprint(depth);
    if (failed.contains(fp)) {
      ++stats.memo_hits;
      return false;
    }

    const int job = order[depth];
    const Time t = instance.time(job);

    // Try machines from most to least loaded (tightest feasible fit first —
    // the FFD intuition), skipping duplicate loads (interchangeable bins).
    std::vector<int> machines(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) machines[i] = static_cast<int>(i);
    std::stable_sort(machines.begin(), machines.end(),
                     [&](int a, int b) {
                       return loads[static_cast<std::size_t>(a)] >
                              loads[static_cast<std::size_t>(b)];
                     });

    Time previous_load = -1;
    for (int machine : machines) {
      const Time load = loads[static_cast<std::size_t>(machine)];
      if (load == previous_load) continue;  // equal-load dominance
      previous_load = load;
      if (load + t > capacity) continue;

      loads[static_cast<std::size_t>(machine)] = load + t;
      chosen[depth] = machine;
      remaining -= t;
      const bool ok = dfs(depth + 1);
      remaining += t;
      loads[static_cast<std::size_t>(machine)] = load;
      if (ok) return true;
      if (budget_exhausted) return false;  // don't cache budget cut-offs
    }

    failed.insert(fp);
    return false;
  }
};

}  // namespace

Feasibility pack_within(const Instance& instance, Time capacity,
                        const FeasibilitySearchLimits& limits, Schedule* out,
                        FeasibilityStats* stats,
                        const CancellationToken& cancel) {
  FeasibilityStats local_stats;
  FeasibilityStats& st = stats != nullptr ? *stats : local_stats;
  st = FeasibilityStats{};

  if (instance.max_time() > capacity) {
    return Feasibility::kInfeasible;  // the longest job fits nowhere
  }

  Search search(instance, capacity, limits, cancel, st);
  const bool found = search.dfs(0);
  st.seconds = search.clock.elapsed_seconds();

  if (found) {
    if (out != nullptr) {
      Schedule schedule(instance.machines());
      for (std::size_t d = 0; d < search.order.size(); ++d) {
        schedule.assign(search.chosen[d], search.order[d]);
      }
      *out = std::move(schedule);
    }
    return Feasibility::kFeasible;
  }
  return search.budget_exhausted ? Feasibility::kUnknown : Feasibility::kInfeasible;
}

}  // namespace pcmax
