#include "algo/ldm.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// A partial solution: m sub-machines, each a load plus its job set,
/// kept sorted by non-increasing load.
struct Tuple {
  struct SubMachine {
    Time load = 0;
    std::vector<int> jobs;
  };
  std::vector<SubMachine> machines;

  /// The differencing key: spread between the heaviest and lightest load.
  [[nodiscard]] Time spread() const {
    return machines.front().load - machines.back().load;
  }

  void sort_by_load_desc() {
    std::stable_sort(machines.begin(), machines.end(),
                     [](const SubMachine& a, const SubMachine& b) {
                       return a.load > b.load;
                     });
  }
};

/// Merges b into a: a's heaviest machine takes b's lightest, and so on —
/// the balanced pairing that cancels the spreads against each other.
Tuple merge_tuples(Tuple a, Tuple b) {
  const std::size_t m = a.machines.size();
  Tuple merged;
  merged.machines.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    Tuple::SubMachine& out = merged.machines[i];
    Tuple::SubMachine& heavy = a.machines[i];
    Tuple::SubMachine& light = b.machines[m - 1 - i];
    out.load = heavy.load + light.load;
    out.jobs = std::move(heavy.jobs);
    out.jobs.insert(out.jobs.end(), light.jobs.begin(), light.jobs.end());
  }
  merged.sort_by_load_desc();
  return merged;
}

}  // namespace

SolverResult LdmSolver::solve_impl(const Instance& instance,
                                   const SolveContext& /*context*/) {
  Stopwatch sw;
  const auto m = static_cast<std::size_t>(instance.machines());

  // Max-heap over (spread, sequence) with the tuples owned by a vector so
  // they can be moved out on pop (std::priority_queue only exposes a const
  // top). The sequence number makes tie-breaks deterministic.
  struct HeapEntry {
    Time spread;
    std::size_t sequence;
    Tuple tuple;
  };
  auto heap_less = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.spread != b.spread) return a.spread < b.spread;
    return a.sequence > b.sequence;
  };
  std::vector<HeapEntry> heap;
  heap.reserve(static_cast<std::size_t>(instance.jobs()));

  std::size_t sequence = 0;
  for (int j = 0; j < instance.jobs(); ++j) {
    Tuple tuple;
    tuple.machines.resize(m);
    tuple.machines.front().load = instance.time(j);
    tuple.machines.front().jobs.push_back(j);
    // Already sorted: one loaded machine followed by empty ones.
    heap.push_back(HeapEntry{tuple.spread(), sequence++, std::move(tuple)});
  }
  std::make_heap(heap.begin(), heap.end(), heap_less);

  auto pop_tuple = [&] {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    Tuple tuple = std::move(heap.back().tuple);
    heap.pop_back();
    return tuple;
  };

  while (heap.size() > 1) {
    // The two largest spreads merge; their difference is what remains.
    Tuple a = pop_tuple();
    Tuple b = pop_tuple();
    Tuple merged = merge_tuples(std::move(a), std::move(b));
    heap.push_back(HeapEntry{merged.spread(), sequence++, std::move(merged)});
    std::push_heap(heap.begin(), heap.end(), heap_less);
  }

  const Tuple& final_tuple = heap.front().tuple;
  Schedule schedule(instance.machines());
  for (std::size_t i = 0; i < m; ++i) {
    for (int job : final_tuple.machines[i].jobs) {
      schedule.assign(static_cast<int>(i), job);
    }
  }

  SolverResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();
  return result;
}

}  // namespace pcmax
