// Cross-checks the DP against an independent algorithm: OPT(N) — the
// minimum number of machines that fit the rounded jobs within T — must agree
// with the branch-and-bound packing decision run on the same job multiset.
// Two entirely different solvers (counting DP over configurations vs DFS
// packing with dominance pruning) agreeing across random shapes is strong
// evidence both are right.
// A second family of cross-checks covers the parallel realisations: every
// ParallelDpVariant under every LoopSchedule must reproduce the sequential
// bottom-up table byte for byte (values AND argmin choices) and perform the
// identical number of entry computations, across randomized shapes.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_chunk_graph.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "core/instance.hpp"
#include "exact/bin_feasibility.hpp"
#include "obs/metrics.hpp"
#include "parallel/executor.hpp"
#include "util/rng.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

RoundedInstance make_rounded(const std::vector<Time>& sizes,
                             const std::vector<int>& counts, Time target) {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(target, 4);
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    rounded.class_index.push_back(static_cast<int>(d) + 1);
    rounded.class_size.push_back(sizes[d]);
    rounded.class_count.push_back(counts[d]);
    rounded.class_jobs.emplace_back();
    rounded.total_long_jobs += counts[d];
  }
  return rounded;
}

/// Minimum machines for the rounded jobs within `target`, via the
/// independent packing decision (binary search over machine counts).
int min_machines_by_packing(const std::vector<Time>& sizes,
                            const std::vector<int>& counts, Time target) {
  std::vector<Time> jobs;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    for (int c = 0; c < counts[d]; ++c) jobs.push_back(sizes[d]);
  }
  if (jobs.empty()) return 0;
  for (int machines = 1; machines <= static_cast<int>(jobs.size()); ++machines) {
    const Instance instance(machines, jobs);
    const Feasibility answer = pack_within(instance, target, {}, nullptr, nullptr);
    EXPECT_NE(answer, Feasibility::kUnknown);
    if (answer == Feasibility::kFeasible) return machines;
  }
  ADD_FAILURE() << "one machine per job must always fit (sizes <= target)";
  return static_cast<int>(jobs.size());
}

TEST(DpCrossCheck, AgreesWithPackingOnFixedShapes) {
  const struct {
    std::vector<Time> sizes;
    std::vector<int> counts;
    Time target;
  } cases[] = {
      {{6, 11}, {2, 3}, 30},
      {{9, 13, 17}, {3, 2, 2}, 40},
      {{20}, {5}, 30},
      {{10, 15}, {6, 4}, 30},
      {{7, 8, 9, 10}, {2, 1, 2, 1}, 31},
      {{25, 26}, {3, 3}, 52},
  };
  for (const auto& test_case : cases) {
    const RoundedInstance rounded =
        make_rounded(test_case.sizes, test_case.counts, test_case.target);
    const StateSpace space(test_case.counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun run = dp_bottom_up(rounded, space, configs);
    EXPECT_EQ(run.machines_needed,
              min_machines_by_packing(test_case.sizes, test_case.counts,
                                      test_case.target))
        << "T=" << test_case.target;
  }
}

TEST(DpCrossCheck, AgreesWithPackingOnRandomShapes) {
  Xoshiro256StarStar rng(0xC0FFEE);
  for (int round = 0; round < 25; ++round) {
    const Time target = uniform_int(rng, 20, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      // Long-ish sizes in (target/4, target]: mimics real rounded classes.
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 0, 4)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun run = dp_bottom_up(rounded, space, configs);
    EXPECT_EQ(run.machines_needed,
              min_machines_by_packing(sizes, counts, target))
        << "round " << round << " T=" << target;
  }
}

TEST(DpCrossCheck, MachineCountMonotoneInTarget) {
  // Raising T can only reduce OPT(N) for a fixed rounded job set.
  const std::vector<Time> sizes{9, 14};
  const std::vector<int> counts{3, 3};
  std::int32_t previous = INT32_MAX;
  for (Time target = 14; target <= 70; target += 7) {
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun run = dp_bottom_up(rounded, space, configs);
    EXPECT_LE(run.machines_needed, previous) << "T=" << target;
    previous = run.machines_needed;
  }
}

/// Asserts `run` reproduces `reference` byte for byte: same OPT(N), same
/// value and same argmin choice at every entry.
void expect_identical_tables(const DpRun& reference, const DpRun& run,
                             const std::string& what) {
  ASSERT_EQ(run.table.size(), reference.table.size()) << what;
  EXPECT_EQ(run.machines_needed, reference.machines_needed) << what;
  for (std::size_t i = 0; i < reference.table.size(); ++i) {
    ASSERT_EQ(run.table.value(i), reference.table.value(i))
        << what << " value at entry " << i;
    ASSERT_EQ(run.table.choice(i), reference.table.choice(i))
        << what << " choice at entry " << i;
  }
}

TEST(DpCrossCheck, AllVariantsAndSchedulesMatchSequentialOnRandomShapes) {
  constexpr ParallelDpVariant kVariants[] = {ParallelDpVariant::kScanPerLevel,
                                             ParallelDpVariant::kBucketed,
                                             ParallelDpVariant::kSpmd};
  constexpr LoopSchedule kSchedules[] = {
      LoopSchedule::kStatic, LoopSchedule::kRoundRobin, LoopSchedule::kDynamic};
  Xoshiro256StarStar rng(0xDECADE);
  WorkStealingExecutor executor(4);
  for (int round = 0; round < 8; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun reference = dp_bottom_up(rounded, space, configs);
    ASSERT_EQ(reference.stats.entries_computed, space.size());

    for (const ParallelDpVariant variant : kVariants) {
      for (const LoopSchedule schedule : kSchedules) {
        ParallelDpOptions options;
        options.executor = &executor;
        options.variant = variant;
        options.schedule = schedule;
        options.spmd_threads = 4;
        const DpRun run = dp_parallel(rounded, space, configs, options);
        const std::string what = parallel_dp_variant_name(variant) + "/" +
                                 loop_schedule_name(schedule) + " round " +
                                 std::to_string(round);
        expect_identical_tables(reference, run, what);
        // Entries-processed totals are identical too: every realisation
        // computes each of the sigma entries exactly once, independent of
        // how iterations were assigned to workers.
        EXPECT_EQ(run.stats.entries_computed, reference.stats.entries_computed)
            << what;
      }
    }
  }
}

TEST(DpCrossCheck, PruningAndTableModesAgreeAcrossKernelsAndVariants) {
  // The level-prefix bound and the values-only probe mode are pure
  // optimisations: every combination must reproduce the per-entry
  // enumeration reference (which never materialises a non-fitting config,
  // so it has nothing to prune) — byte for byte where choices exist, value
  // for value everywhere — while only the scan accounting changes.
  Xoshiro256StarStar rng(0xFACADE);
  WorkStealingExecutor executor(4);
  for (int round = 0; round < 6; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const std::string tag = " round " + std::to_string(round);
    // Scans of a full, unpruned sweep: every config for every entry.
    const std::uint64_t full_scans = (space.size() - 1) * configs.count();

    // Reference: the paper-faithful per-entry enumeration (its canonical
    // argmin falls out of the lexicographic enumeration order).
    const DpRun enumerated = dp_bottom_up(rounded, space, configs,
                                          DpKernel::kPerEntryEnum);
    EXPECT_EQ(enumerated.stats.configs_pruned, 0u);

    // Level-pruned scan: byte-identical, fewer-or-equal scans, and exact
    // scan/prune conservation.
    const DpRun pruned = dp_bottom_up(rounded, space, configs);
    expect_identical_tables(enumerated, pruned, "pruned" + tag);
    EXPECT_LE(pruned.stats.config_scans, full_scans);
    EXPECT_EQ(pruned.stats.config_scans + pruned.stats.configs_pruned,
              full_scans);

    // Values-only mode: same values and OPT(N), no choice array.
    const DpRun values_only =
        dp_bottom_up(rounded, space, configs, DpKernel::kGlobalConfigs, {},
                     DpTableMode::kValuesOnly);
    EXPECT_FALSE(values_only.table.has_choices());
    EXPECT_EQ(values_only.machines_needed, enumerated.machines_needed);
    for (std::size_t i = 0; i < space.size(); ++i) {
      ASSERT_EQ(values_only.table.value(i), enumerated.table.value(i))
          << "values-only entry " << i << tag;
    }

    // Parallel values-only probes (the bisection fast path):
    // value-identical, conservation holds per run.
    for (const ParallelDpVariant variant :
         {ParallelDpVariant::kBucketed, ParallelDpVariant::kSpmd}) {
      ParallelDpOptions options;
      options.executor = &executor;
      options.variant = variant;
      options.spmd_threads = 4;
      options.table_mode = DpTableMode::kValuesOnly;
      const DpRun run = dp_parallel(rounded, space, configs, options);
      const std::string what =
          parallel_dp_variant_name(variant) + " values-only" + tag;
      EXPECT_FALSE(run.table.has_choices()) << what;
      EXPECT_EQ(run.machines_needed, enumerated.machines_needed) << what;
      for (std::size_t i = 0; i < space.size(); ++i) {
        ASSERT_EQ(run.table.value(i), enumerated.table.value(i))
            << what << " entry " << i;
      }
      EXPECT_EQ(run.stats.config_scans + run.stats.configs_pruned, full_scans)
          << what;
    }
  }
}

TEST(DpCrossCheck, SyncModePoolThreadMatrixMatchesSequential) {
  // The determinism matrix gating the work-stealing pool:
  //   {bucketed (chunk-dependency graph), spmd (barrier)} x threads {1, 3, 8}
  // Every combination must reproduce the sequential bottom-up table byte
  // for byte (values AND argmin choices), compute each entry exactly once,
  // and conserve scans + pruned against the unpruned scan total. Bucketed
  // also runs off the pool: on a SequentialExecutor, and nested inside a
  // pool worker, where its chunks run in id order on the calling thread.
  Xoshiro256StarStar rng(0xB00C5);
  for (int round = 0; round < 3; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 2, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const std::uint64_t full_scans = (space.size() - 1) * configs.count();
    const DpRun reference = dp_bottom_up(rounded, space, configs);

    const auto check_cell = [&](ParallelDpOptions options,
                                const std::string& what) {
      const DpRun run = dp_parallel(rounded, space, configs, options);
      expect_identical_tables(reference, run, what);
      EXPECT_EQ(run.stats.entries_computed, space.size()) << what;
      EXPECT_EQ(run.stats.config_scans + run.stats.configs_pruned, full_scans)
          << what;

      // Values-only probe mode of the same cell: value equality against
      // the reference, no choice array.
      options.table_mode = DpTableMode::kValuesOnly;
      const DpRun probe = dp_parallel(rounded, space, configs, options);
      EXPECT_FALSE(probe.table.has_choices()) << what;
      EXPECT_EQ(probe.machines_needed, reference.machines_needed) << what;
      for (std::size_t i = 0; i < space.size(); ++i) {
        ASSERT_EQ(probe.table.value(i), reference.table.value(i))
            << what << " values-only entry " << i;
      }
      EXPECT_EQ(probe.stats.config_scans + probe.stats.configs_pruned,
                full_scans)
          << what;
    };

    for (const unsigned threads : {1u, 3u, 8u}) {
      WorkStealingExecutor executor(threads);
      for (const ParallelDpVariant variant :
           {ParallelDpVariant::kBucketed, ParallelDpVariant::kSpmd}) {
        ParallelDpOptions options;
        options.executor = &executor;
        options.variant = variant;
        options.spmd_threads = threads;
        check_cell(options, parallel_dp_variant_name(variant) + "/t" +
                                std::to_string(threads) + " round " +
                                std::to_string(round));
      }
    }

    ParallelDpOptions bucketed;
    bucketed.variant = ParallelDpVariant::kBucketed;
    SequentialExecutor sequential;
    bucketed.executor = &sequential;
    check_cell(bucketed, "bucketed/sequential round " + std::to_string(round));

    // Nested: the DP is called from a pool worker's range body, where no
    // task episode can start.
    WorkStealingExecutor outer(2);
    bucketed.executor = &outer;
    outer.pool().parallel_for_1d(1, [&](std::size_t, std::size_t, unsigned) {
      check_cell(bucketed, "bucketed/nested round " + std::to_string(round));
    });
  }
}

TEST(DpCrossCheck, AllKernelsMatchAcrossEnginesIterationSyncAndTableModes) {
  // The kernel axis of the determinism matrix: every selectable kernel
  // (auto, SWAR, AVX2 — an unsupported AVX2 degrades to SWAR, which is
  // itself part of the contract — and the per-entry enumeration) under
  // every engine x table mode x thread count must reproduce the sequential
  // bottom-up reference byte for byte.
  constexpr DpKernel kKernels[] = {DpKernel::kGlobalConfigs, DpKernel::kSwar,
                                   DpKernel::kAvx2, DpKernel::kPerEntryEnum};
  Xoshiro256StarStar rng(0x51D3);
  for (int round = 0; round < 2; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 2, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 2, 6)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun reference = dp_bottom_up(rounded, space, configs);

    for (const DpKernel kernel : kKernels) {
      const std::string kname = dp_kernel_name(kernel);
      DpOptions seq;
      seq.kernel = kernel;
      const DpRun bottom_up = dp_bottom_up(rounded, space, configs, seq);
      expect_identical_tables(reference, bottom_up,
                              "bottom-up/" + kname + " round " +
                                  std::to_string(round));

      // Parallel engines: variant x table mode x threads.
      for (const unsigned threads : {1u, 3u, 8u}) {
        WorkStealingExecutor executor(threads);
        for (const ParallelDpVariant variant :
             {ParallelDpVariant::kBucketed, ParallelDpVariant::kSpmd}) {
          for (const DpTableMode mode :
               {DpTableMode::kValuesAndChoices, DpTableMode::kValuesOnly}) {
            ParallelDpOptions options;
            options.executor = &executor;
            options.variant = variant;
            options.spmd_threads = threads;
            options.kernel = kernel;
            options.table_mode = mode;
            const DpRun run = dp_parallel(rounded, space, configs, options);
            const std::string what =
                parallel_dp_variant_name(variant) + "/" + kname + "/t" +
                std::to_string(threads) +
                (mode == DpTableMode::kValuesOnly ? "/values-only" : "") +
                " round " + std::to_string(round);
            if (mode == DpTableMode::kValuesAndChoices) {
              expect_identical_tables(reference, run, what);
            } else {
              EXPECT_FALSE(run.table.has_choices()) << what;
              EXPECT_EQ(run.machines_needed, reference.machines_needed)
                  << what;
              for (std::size_t i = 0; i < space.size(); ++i) {
                ASSERT_EQ(run.table.value(i), reference.table.value(i))
                    << what << " entry " << i;
              }
            }
            EXPECT_EQ(run.stats.entries_computed, space.size()) << what;
            EXPECT_EQ(run.stats.kernel, resolve_dp_kernel(kernel)) << what;
          }
        }
      }
    }
  }
}

TEST(DpCrossCheck, ChunkWaitsTotalIsDeterministic) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // dp.chunk_waits counts the dependency decrements that did NOT release a
  // chunk. Every edge of the chunk graph decrements exactly once and exactly
  // one decrement releases each non-root chunk, so the total is a property
  // of the graph — total_dependencies() - (chunks - roots) — and identical
  // on every run, whatever order the work-stealing pool executed chunks in.
  const RoundedInstance rounded = make_rounded({8, 12, 19}, {4, 4, 3}, 38);
  const std::vector<int> counts{4, 4, 3};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  constexpr unsigned kThreads = 3;
  WorkStealingExecutor executor(kThreads);

  // Mirror the bucketed sweep's chunk-target choice (dp_parallel.cpp) to
  // derive the expected total from the graph itself.
  LevelWalker walker(space);
  std::uint64_t max_width = 1;
  for (int l = 0; l <= space.max_level(); ++l) {
    max_width = std::max(max_width, walker.level_size(l));
  }
  const std::size_t target =
      std::clamp(static_cast<std::size_t>(max_width / (4 * kThreads)),
                 std::size_t{16}, std::size_t{256});
  const DpChunkGraph graph = build_chunk_graph(space, target);
  const std::uint64_t expected =
      graph.total_dependencies() -
      (graph.chunks.size() - graph.level_first[1]);

  for (int run = 0; run < 3; ++run) {
    obs::Metrics metrics(kThreads);
    const obs::MetricsScope scope(metrics);
    ParallelDpOptions options;
    options.executor = &executor;
    options.variant = ParallelDpVariant::kBucketed;
    dp_parallel(rounded, space, configs, options);
    EXPECT_EQ(metrics.counter_total(obs::Counter::kDpChunkWaits), expected)
        << "run " << run;
  }
}

TEST(DpCrossCheck, MetricsEntryTotalsAgreeAcrossVariantsAndSchedules) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // Same matrix, observed through the metrics layer: each run's per-worker
  // entry totals must sum to sigma no matter how the work was split.
  const RoundedInstance rounded = make_rounded({8, 12, 19}, {3, 3, 2}, 38);
  const StateSpace space(std::vector<int>{3, 3, 2}, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  WorkStealingExecutor executor(4);
  obs::Metrics metrics(4);
  const obs::MetricsScope scope(metrics);
  std::size_t expected_runs = 0;
  for (const ParallelDpVariant variant :
       {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed,
        ParallelDpVariant::kSpmd}) {
    for (const LoopSchedule schedule :
         {LoopSchedule::kStatic, LoopSchedule::kRoundRobin,
          LoopSchedule::kDynamic}) {
      ParallelDpOptions options;
      options.executor = &executor;
      options.variant = variant;
      options.schedule = schedule;
      options.spmd_threads = 4;
      dp_parallel(rounded, space, configs, options);
      ++expected_runs;
    }
  }
  const std::vector<obs::DpRunRecord> runs = metrics.dp_runs();
  ASSERT_EQ(runs.size(), expected_runs);
  for (const obs::DpRunRecord& run : runs) {
    std::uint64_t total = 0;
    for (const std::uint64_t entries : run.per_worker_entries) total += entries;
    EXPECT_EQ(total, space.size()) << run.variant << "/" << run.schedule;
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kDpEntries),
            expected_runs * space.size());
}

}  // namespace
}  // namespace pcmax
