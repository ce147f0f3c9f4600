// Parallel DP — the paper's core contribution (Algorithm 3).
//
// Entries on the same anti-diagonal (equal digit sum d(v)) are mutually
// independent, so the table is swept level-by-level: level l is processed by
// P workers in parallel, and a synchronisation point separates consecutive
// levels. Three realisations are provided:
//
//  * kScanPerLevel — paper-faithful: first compute the level array D in
//    parallel (Alg. 3 Lines 4-8), then for every level scan all sigma
//    entries and process those with d_i == l (Lines 10-25). The scan costs
//    O(sigma) per level on top of the useful work.
//  * kBucketed — each level's parallel loop touches only that level's
//    entries. Same results, no per-level scan (ablation:
//    bench/ablation_dp_variants quantifies the difference).
//  * kSpmd — persistent threads with a barrier between levels, eliminating
//    the per-level fork/join of the executor.
//
// kBucketed and kSpmd enumerate a level's entries with a LevelWalker
// (rank/unrank splitting plus an amortised-O(1) composition odometer; no
// level array, no index gather, no per-entry decode). The kernel's argmin
// is canonical, so every variant fills an identical table.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/ptas/dp_sequential.hpp"
#include "parallel/executor.hpp"

namespace pcmax {

/// Parallelisation strategy for the level sweep.
enum class ParallelDpVariant {
  kScanPerLevel,
  kBucketed,
  kSpmd,
};

/// Human-readable variant name for reports.
std::string parallel_dp_variant_name(ParallelDpVariant variant);

/// Inter-level synchronisation of kBucketed/kSpmd.
enum class DpSyncMode {
  /// Full synchronisation between consecutive anti-diagonals: an executor
  /// fork/join per level (kBucketed) or an SPMD barrier (kSpmd). Every
  /// worker pays the sync cost max_level times even on one-entry levels.
  kBarrier,
  /// Barrier-free: levels are cut into rank chunks and a chunk becomes
  /// runnable the moment its per-chunk dependency counter (derived from
  /// the lexicographic predecessor hull, see dp_chunk_graph.hpp) drains,
  /// so narrow levels pipeline instead of serialising the whole pool.
  /// Runs on the work-stealing pool: kBucketed requires the executor to
  /// be a WorkStealingExecutor; kSpmd spins up an ephemeral pool of
  /// spmd_threads. Not applicable to kScanPerLevel (whose per-level
  /// full-table scan is inherently level-synchronised).
  kCounters,
};

/// Human-readable sync-mode name for reports.
std::string dp_sync_mode_name(DpSyncMode mode);

/// Options of one parallel DP run.
struct ParallelDpOptions {
  /// Executor running the parallel loops (kScanPerLevel/kBucketed); must
  /// stay alive for the duration of the call. Ignored by kSpmd.
  Executor* executor = nullptr;
  ParallelDpVariant variant = ParallelDpVariant::kBucketed;
  /// Claim granularity inside a level of kScanPerLevel on the work-stealing
  /// executor: kStatic = auto chunk (~8 claims per worker), kRoundRobin =
  /// single-iteration claims (the default, after the paper's round-robin
  /// construct), kDynamic = claims of the sweep's fixed chunk. kBucketed
  /// always runs its levels under kStatic.
  LoopSchedule schedule = LoopSchedule::kRoundRobin;
  /// Thread count for the kSpmd variant.
  unsigned spmd_threads = 1;
  /// Per-entry kernel: a configuration-scan kernel (kGlobalConfigs
  /// auto-selects the fastest supported one; SWAR/AVX2 can be forced) or
  /// the paper-faithful per-entry configuration enumeration (Alg. 3
  /// Line 17). Resolved once per run; recorded in DpStats::kernel.
  DpKernel kernel = DpKernel::kGlobalConfigs;
  /// Inter-level synchronisation of kBucketed/kSpmd (see DpSyncMode).
  /// Identical tables either way; kCounters trades the per-level barrier
  /// for chunk dependency counters on the work-stealing pool.
  DpSyncMode sync_mode = DpSyncMode::kBarrier;
  /// Values-only tables skip the choice array — sufficient for feasibility
  /// probes that only read OPT(N).
  DpTableMode table_mode = DpTableMode::kValuesAndChoices;
  /// Cooperative stop signal, polled once per level and (amortised) inside
  /// every range chunk, so a cancel is honoured within one anti-diagonal.
  /// The DP is all-or-nothing: a stop throws DeadlineExceededError /
  /// CancelledError; a half-filled table is never returned.
  ///
  /// API v2 note: at the solver level this is internal plumbing — pass the
  /// signal via SolveContext.cancel to PtasSolver::solve(instance, context)
  /// and it lands here automatically. Set it directly only when driving
  /// dp_parallel() standalone (tests, benches).
  CancellationToken cancel;
};

/// Computes the anti-diagonal level d(v) of every entry, in parallel
/// (paper Alg. 3 Lines 4-8). Exposed for tests and benches.
std::vector<std::int32_t> compute_levels(const StateSpace& space, Executor& executor,
                                         const CancellationToken& cancel = {});

/// Runs the level-synchronised parallel DP. Produces a table identical to
/// dp_bottom_up (values and canonical argmin choices are deterministic —
/// min predecessor value, ties towards the smallest encoded offset —
/// independent of worker interleaving and iteration order).
DpRun dp_parallel(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, const ParallelDpOptions& options);

}  // namespace pcmax
