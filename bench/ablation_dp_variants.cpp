// Ablation: DP realisations compared on identical bisection probes.
//
// Questions this answers (DESIGN.md experiment index):
//  * how much work does the paper-faithful O(sigma)-scan-per-level variant
//    waste versus walking each level's entries directly?
//  * what do fork-join-per-level (scan), the chunk-dependency graph
//    (bucketed) and persistent-threads+barrier (SPMD) cost in wall time at
//    various thread counts?
//  * what does the AVX2 fits-test kernel buy over SWAR on identical
//    single-threaded bottom-up runs?
//
// `--json <path>` additionally dumps the per-family numbers and the SIMD
// kernel shootout as a pcmax.ablation.v3 document. v3 over v2: the
// top-down variant row, the scalar/AVX-512 shootout rows and the
// pre-optimisation `kernel_comparison` sections are gone with the code
// paths they measured; BENCH_dp_kernel.json in the repo root is the
// tracked v2 snapshot that still holds those numbers. v2 over v1: every
// variant entry carries the resolved `kernel` name plus
// `simd_blocks_mean`, and the root gains `host_best_kernel`, per-family
// `simd_kernels` arrays, and `simd_comparison_aggregate` (SWAR vs AVX2
// totals).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <vector>

#include "algo/ptas/ptas.hpp"
#include "core/instance_gen.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

namespace {

struct VariantSpec {
  std::string label;
  DpEngine engine;
  unsigned threads;
  DpKernel kernel = DpKernel::kGlobalConfigs;
};

struct VariantStats {
  RunningStats seconds;
  RunningStats dp_seconds;
  RunningStats entries;
  RunningStats scans;
  RunningStats pruned;
  RunningStats simd_blocks;
  RunningStats makespan;
  /// The kernel the runs actually used (post resolve_dp_kernel), from the
  /// solver's dp_kernel result note.
  std::string kernel;
};

/// Runs one variant over `trials` instances of `family`, accumulating stats.
/// `reps` repeats the whole trial sweep, folding every solve into the same
/// accumulators — the per-solve timings of the single-threaded kernel
/// shootout are sub-millisecond at paper scale, so one pass is noise-bound.
VariantStats run_variant(const VariantSpec& variant, InstanceFamily family,
                         int m, int n, int trials, std::uint64_t seed,
                         double epsilon, int reps = 1) {
  VariantStats stats;
  // Per-trial best DP time across reps: min-of-reps is the noise-robust
  // microbenchmark estimator (the DP fill is deterministic per trial, so
  // anything above the minimum is scheduler/timer noise, not work).
  std::vector<double> best_dp(static_cast<std::size_t>(trials),
                              std::numeric_limits<double>::infinity());
  for (int solve = 0; solve < trials * reps; ++solve) {
    const int trial = solve % trials;
    const Instance instance =
        generate_instance(family, m, n, seed, static_cast<std::uint64_t>(trial));
    PtasOptions options;
    options.epsilon = epsilon;
    options.engine = variant.engine;
    options.spmd_threads = variant.threads;
    options.kernel = variant.kernel;
    std::unique_ptr<Executor> executor;
    if (variant.engine == DpEngine::kParallelScan ||
        variant.engine == DpEngine::kParallelBucketed) {
      executor = std::make_unique<WorkStealingExecutor>(variant.threads);
      options.executor = executor.get();
    }
    PtasSolver solver(options);
    const SolverResult result = solver.solve(instance);
    stats.seconds.add(result.seconds);
    best_dp[static_cast<std::size_t>(trial)] = std::min(
        best_dp[static_cast<std::size_t>(trial)],
        result.stats.at("dp_seconds"));
    stats.entries.add(result.stats.at("entries_computed"));
    stats.scans.add(result.stats.at("config_scans"));
    stats.pruned.add(result.stats.at("configs_pruned"));
    stats.simd_blocks.add(result.stats.at("simd_blocks"));
    stats.makespan.add(static_cast<double>(result.makespan));
    stats.kernel = result.notes.at("dp_kernel");
  }
  for (const double dp : best_dp) stats.dp_seconds.add(dp);
  return stats;
}

JsonValue stats_to_json(const std::string& label, const VariantStats& stats) {
  JsonValue entry = JsonValue::make_object();
  entry["label"] = label;
  entry["kernel"] = stats.kernel;
  entry["seconds_mean"] = stats.seconds.mean();
  entry["dp_seconds_mean"] = stats.dp_seconds.mean();
  entry["entries_mean"] = stats.entries.mean();
  entry["config_scans_mean"] = stats.scans.mean();
  entry["configs_pruned_mean"] = stats.pruned.mean();
  entry["simd_blocks_mean"] = stats.simd_blocks.mean();
  entry["makespan_mean"] = stats.makespan.mean();
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Ablation of the DP engine variants of the (parallel) PTAS.");
  cli.add_int("m", 20, "number of machines");
  cli.add_int("n", 100, "number of jobs");
  cli.add_int("trials", 3, "instances per family");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_double("epsilon", 0.3, "PTAS accuracy");
  cli.add_int("simd-reps", 5,
              "repetitions of the SIMD kernel shootout (stabilises the "
              "sub-millisecond per-family timings)");
  cli.add_string("json", "", "write results as JSON to this path");
  if (!cli.parse(argc, argv)) return 0;

  const int m = static_cast<int>(cli.get_int("m"));
  const int n = static_cast<int>(cli.get_int("n"));
  const int trials = static_cast<int>(cli.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double epsilon = cli.get_double("epsilon");
  const int simd_reps = std::max(1, static_cast<int>(cli.get_int("simd-reps")));
  const std::string json_path = cli.get_string("json");

  const std::vector<VariantSpec> variants = {
      // Kernel ablation: the paper's per-entry configuration re-enumeration
      // (Alg. 3 Line 17) vs this library's precomputed global config set.
      {"bottom-up, paper kernel", DpEngine::kBottomUp, 1,
       DpKernel::kPerEntryEnum},
      {"bottom-up, global kernel", DpEngine::kBottomUp, 1},
      // Parallelisation-strategy ablation (real threads).
      {"scan/level x2", DpEngine::kParallelScan, 2},
      {"bucketed x2", DpEngine::kParallelBucketed, 2},
      {"spmd x2", DpEngine::kSpmd, 2},
      {"scan/level x4", DpEngine::kParallelScan, 4},
      {"bucketed x4", DpEngine::kParallelBucketed, 4},
      {"spmd x4", DpEngine::kSpmd, 4},
  };

  std::cout << "=== DP-variant ablation: m=" << m << ", n=" << n
            << ", eps=" << epsilon << ", trials=" << trials << " ===\n"
            << "entries/scans are summed over all bisection probes; times are\n"
            << "measured wall clock on this machine (thread counts are real\n"
            << "threads, which only help if physical cores are available).\n\n";

  // SIMD kernel shootout: single-threaded bottom-up so the ratio is pure
  // per-entry scan cost. Only kernels the host can actually run are raced
  // (a forced-but-unsupported kernel would silently measure its fallback).
  std::vector<VariantSpec> simd_variants = {
      {"bottom-up x1, swar", DpEngine::kBottomUp, 1, DpKernel::kSwar},
  };
  if (dp_kernel_supported(DpKernel::kAvx2)) {
    simd_variants.push_back(
        {"bottom-up x1, avx2", DpEngine::kBottomUp, 1, DpKernel::kAvx2});
  }

  JsonValue root = JsonValue::make_object();
  root["schema"] = "pcmax.ablation.v3";
  {
    JsonValue params = JsonValue::make_object();
    params["m"] = m;
    params["n"] = n;
    params["trials"] = trials;
    params["seed"] = static_cast<std::int64_t>(seed);
    params["epsilon"] = epsilon;
    root["params"] = std::move(params);
  }
  root["host_best_kernel"] = dp_kernel_name(select_best_kernel());
  JsonValue families_json = JsonValue::make_array();
  double swar_total = 0.0;
  double avx2_total = 0.0;

  for (const InstanceFamily family : speedup_families()) {
    TablePrinter table({"variant", "seconds", "entries", "config scans",
                        "pruned", "makespan"});
    JsonValue family_json = JsonValue::make_object();
    family_json["family"] = family_name(family);
    JsonValue variants_json = JsonValue::make_array();
    for (const VariantSpec& variant : variants) {
      const VariantStats stats =
          run_variant(variant, family, m, n, trials, seed, epsilon);
      table.add_row({variant.label, TablePrinter::fmt(stats.seconds.mean(), 4),
                     TablePrinter::fmt(stats.entries.mean(), 0),
                     TablePrinter::fmt(stats.scans.mean(), 0),
                     TablePrinter::fmt(stats.pruned.mean(), 0),
                     TablePrinter::fmt(stats.makespan.mean(), 1)});
      variants_json.append(stats_to_json(variant.label, stats));
    }
    std::cout << family_name(family) << ":\n" << table.to_string() << "\n";

    // SIMD kernel shootout on the same instances. Compared on DP seconds:
    // rounding, bounds, and config enumeration are kernel-independent and
    // would only dilute the per-entry scan ratio.
    TablePrinter simd_table(
        {"kernel", "dp seconds", "simd blocks", "makespan"});
    JsonValue simd_json = JsonValue::make_array();
    for (const VariantSpec& variant : simd_variants) {
      const VariantStats stats =
          run_variant(variant, family, m, n, trials, seed, epsilon, simd_reps);
      simd_table.add_row({stats.kernel,
                          TablePrinter::fmt(stats.dp_seconds.mean(), 4),
                          TablePrinter::fmt(stats.simd_blocks.mean(), 0),
                          TablePrinter::fmt(stats.makespan.mean(), 1)});
      simd_json.append(stats_to_json(variant.label, stats));
      if (stats.kernel == "swar") swar_total += stats.dp_seconds.mean();
      if (stats.kernel == "avx2") avx2_total += stats.dp_seconds.mean();
    }
    std::cout << "simd kernels (" << family_name(family) << "):\n"
              << simd_table.to_string() << "\n";

    family_json["variants"] = std::move(variants_json);
    family_json["simd_kernels"] = std::move(simd_json);
    families_json.append(std::move(family_json));
  }
  root["families"] = std::move(families_json);
  {
    // SWAR-vs-AVX2 aggregate over DP seconds: the headline vectorisation
    // number. avx2 totals stay 0 (speedup 0) on hosts without AVX2.
    const double simd_speedup = avx2_total > 0.0 ? swar_total / avx2_total : 0.0;
    JsonValue agg = JsonValue::make_object();
    agg["swar_seconds_total"] = swar_total;
    agg["avx2_seconds_total"] = avx2_total;
    agg["speedup"] = simd_speedup;
    root["simd_comparison_aggregate"] = std::move(agg);
    if (avx2_total > 0.0) {
      std::cout << "simd comparison (aggregate over families): swar "
                << TablePrinter::fmt(swar_total, 4) << "s vs avx2 "
                << TablePrinter::fmt(avx2_total, 4) << "s => "
                << TablePrinter::fmt(simd_speedup, 2) << "x\n\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "cannot open --json output file '" << json_path << "'\n";
      return 1;
    }
    out << root.dump(/*pretty=*/true) << "\n";
    if (!out.good()) {
      std::cerr << "failed writing --json output file '" << json_path << "'\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
