// Microbenchmarks of the work-stealing executor substrate.
//
// Three questions, matching the pool's design decisions:
//  * spawn latency — what does one task (spawn + deque round-trip + retire)
//    cost in a dependency-driven episode, per pool size?
//  * steal throughput — how fast do thieves drain an unbalanced graph where
//    every task beyond the roots must cross a deque?
//  * level handoff — what does one fork-join range episode cost, the price
//    a per-level barrier sweep pays once per anti-diagonal?
//
// `--json <path>` dumps a pcmax.micro_pool.v2 document (min-of-trials
// timings, so the numbers are the machine's capability, not scheduler
// noise). BENCH_executor.json in the repo root is the tracked v1 snapshot,
// which also recorded the barrier-vs-counters comparison of the bucketed DP
// sweep that settled on the chunk-dependency sweep.
#include <cstdint>
#include <fstream>
#include <iostream>

#include "parallel/work_stealing.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

namespace {

/// Chain episode: tasks spawn hand-over-hand, so the wall time is dominated
/// by the per-task spawn/pop/retire path (no parallel work to hide it).
double spawn_latency_seconds(WorkStealingPool& pool, std::uint32_t tasks) {
  const std::uint32_t roots[] = {0};
  const Stopwatch sw;
  pool.run_tasks(roots, tasks,
                 [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
                   if (task + 1 < tasks) ctx.spawn(task + 1);
                 });
  return sw.elapsed_seconds() / tasks;
}

/// Binary-tree fan-out: every non-root task reaches its worker through a
/// deque (own pop or steal); tasks/second is the distribution throughput.
double tree_throughput_tasks_per_second(WorkStealingPool& pool,
                                        std::uint32_t tasks) {
  const std::uint32_t roots[] = {0};
  const Stopwatch sw;
  pool.run_tasks(roots, tasks,
                 [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
                   const std::uint32_t left = 2 * task + 1;
                   const std::uint32_t right = 2 * task + 2;
                   if (left < tasks) ctx.spawn(left);
                   if (right < tasks) ctx.spawn(right);
                 });
  return tasks / sw.elapsed_seconds();
}

/// Barrier-equivalent handoff: one range episode per "level", mirroring the
/// per-level fork-join of the scan-per-level DP sweep on an empty body.
double level_handoff_seconds(WorkStealingPool& pool, int levels,
                             std::size_t width) {
  const Stopwatch sw;
  for (int l = 0; l < levels; ++l) {
    pool.parallel_for_1d(width, [](std::size_t, std::size_t, unsigned) {});
  }
  return sw.elapsed_seconds() / levels;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Microbenchmarks of the work-stealing pool.");
  cli.add_int("threads", 8, "largest pool size measured (after 1 and 2)");
  cli.add_int("trials", 5, "trials per benchmark and pool size");
  cli.add_int("tasks", 1 << 14, "tasks per spawn/steal microbench episode");
  cli.add_string("json", "", "write results as JSON to this path");
  if (!cli.parse(argc, argv)) return 0;

  const auto threads = static_cast<unsigned>(cli.get_int("threads"));
  const int trials = static_cast<int>(cli.get_int("trials"));
  const auto tasks = static_cast<std::uint32_t>(cli.get_int("tasks"));
  const std::string json_path = cli.get_string("json");

  JsonValue doc = JsonValue::make_object();
  doc["schema"] = "pcmax.micro_pool.v2";
  JsonValue params = JsonValue::make_object();
  params["threads"] = threads;
  params["trials"] = trials;
  params["tasks"] = static_cast<std::uint64_t>(tasks);
  doc["params"] = params;

  // --- pool microbenches (min over trials) ---------------------------------
  TablePrinter pool_table({"benchmark", "pool", "value", "unit"});
  JsonValue pool_rows = JsonValue::make_array();
  for (const unsigned size : {1u, 2u, threads}) {
    WorkStealingPool pool(size);
    double latency = 0.0;
    double throughput = 0.0;
    double handoff = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      const double l = spawn_latency_seconds(pool, tasks);
      const double t = tree_throughput_tasks_per_second(pool, tasks);
      const double h = level_handoff_seconds(pool, /*levels=*/200, /*width=*/64);
      if (trial == 0 || l < latency) latency = l;
      if (trial == 0 || t > throughput) throughput = t;
      if (trial == 0 || h < handoff) handoff = h;
    }
    pool_table.add_row({"spawn latency", std::to_string(size),
                        std::to_string(latency * 1e9), "ns/task"});
    pool_table.add_row({"tree throughput", std::to_string(size),
                        std::to_string(throughput / 1e6), "Mtasks/s"});
    pool_table.add_row({"level handoff", std::to_string(size),
                        std::to_string(handoff * 1e6), "us/level"});
    JsonValue row = JsonValue::make_object();
    row["pool_size"] = size;
    row["spawn_latency_ns"] = latency * 1e9;
    row["tree_throughput_tasks_per_s"] = throughput;
    row["level_handoff_us"] = handoff * 1e6;
    pool_rows.append(std::move(row));
  }
  std::cout << "work-stealing pool microbenches (min/best of " << trials
            << " trials)\n";
  pool_table.print(std::cout);
  doc["pool"] = pool_rows;

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << doc.dump(/*pretty=*/true) << "\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
