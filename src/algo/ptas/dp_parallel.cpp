#include "algo/ptas/dp_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <limits>
#include <thread>

#include "algo/ptas/dp_chunk_graph.hpp"
#include "obs/metrics.hpp"
#include "parallel/barrier.hpp"
#include "parallel/spawn.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

std::string parallel_dp_variant_name(ParallelDpVariant variant) {
  switch (variant) {
    case ParallelDpVariant::kScanPerLevel: return "scan-per-level";
    case ParallelDpVariant::kBucketed: return "bucketed";
    case ParallelDpVariant::kSpmd: return "spmd";
  }
  throw InvalidArgumentError("unknown parallel DP variant");
}

std::string dp_sync_mode_name(DpSyncMode mode) {
  switch (mode) {
    case DpSyncMode::kBarrier: return "barrier";
    case DpSyncMode::kCounters: return "counters";
  }
  throw InvalidArgumentError("unknown DP sync mode");
}

namespace {

// Loop granularities of the parallel sweeps. Audited with the chunk-sweep
// micro-benchmark (bench/micro_dp.cpp, BM_DynamicChunkSweep; measurements
// and methodology in docs/performance.md). On the paper-scale synthetic
// with 2 work-stealing workers the sweep measured ~21 ns/item at chunk 1,
// ~7 at 16, ~5.7 at 64, flooring at ~5 by 256 — per-claim cost only
// amortises, so the chunk choice trades claim overhead against tail
// imbalance on the narrow anti-diagonals (paper-scale widths average ~120
// entries).
//
//  * kStaticChunk — compute_levels and the bucketed sweep run under
//    LoopSchedule::kStatic, where the executor ignores the chunk argument
//    and claims auto-sized slices (see LoopSchedule). The constant exists
//    so the call sites document that explicitly instead of passing a
//    magic 1.
//  * kScanChunk — in the scan-per-level sweep most indices of a claimed
//    chunk fail the `levels[i] == level` filter, so a dynamic claim must
//    cover enough raw indices that the claim's atomic update is amortised
//    over the few entries actually processed; at 64 the claim overhead is
//    ~1% of even a SWAR-fast entry's scan.
constexpr std::size_t kStaticChunk = 1;
constexpr std::size_t kScanChunk = 64;

// Chunk-size clamp of the kCounters graph sweep. The nominal target splits
// the *widest* anti-diagonal into ~4 chunks per worker (steal slack without
// excessive graph size); the floor keeps one-entry tail levels from turning
// into per-entry tasks whose spawn cost dwarfs a ~24 ns kernel entry, and
// the ceiling caps the tail imbalance a single oversized chunk can cause.
constexpr std::size_t kCounterChunkMin = 16;
constexpr std::size_t kCounterChunkMax = 256;

/// Amortisation period of the in-range cancellation polls (and the SPMD
/// stop-flag polls): one acquire load every 256 entries keeps the poll cost
/// well below the per-entry config scan while still bounding the reaction
/// latency to a few microseconds of work.
constexpr std::uint32_t kCancelPollPeriod = 256;

}  // namespace

std::vector<std::int32_t> compute_levels(const StateSpace& space, Executor& executor,
                                         const CancellationToken& cancel) {
  std::vector<std::int32_t> levels(space.size());
  const auto counts = space.counts();
  executor.parallel_for_ranges(
      space.size(),
      [&](std::size_t begin, std::size_t end, unsigned /*worker*/) {
        // Decode the first index of the range, then advance the digit
        // odometer so the whole contiguous range costs O(1) per entry.
        std::vector<int> digits(static_cast<std::size_t>(space.dims()));
        space.decode(begin, digits);
        int level = 0;
        for (int d : digits) level += d;
        for (std::size_t i = begin; i < end; ++i) {
          levels[i] = level;
          for (std::size_t d = digits.size(); d-- > 0;) {
            if (digits[d] < counts[d]) {
              ++digits[d];
              ++level;
              break;
            }
            level -= digits[d];
            digits[d] = 0;
          }
        }
      },
      LoopSchedule::kStatic, kStaticChunk, cancel);
  return levels;
}

namespace {

/// Per-worker counters on separate cache lines to avoid false sharing.
struct alignas(64) WorkerCounters {
  std::uint64_t entries = 0;
  DpScanCounters scan;      ///< scans/pruned/simd_blocks/scalar_fallbacks
  std::uint64_t waits = 0;  ///< kCounters only: non-final dependency decrements
};

/// Folds the per-worker counters into the run stats and, when a metrics
/// collector is installed, publishes the structured DP-run record.
void publish_run(obs::DpRunRecorder& recorder,
                 const std::vector<WorkerCounters>& counters, DpRun& run) {
  for (std::size_t w = 0; w < counters.size(); ++w) {
    run.stats.entries_computed += counters[w].entries;
    accumulate_scan_counters(run.stats, counters[w].scan);
    recorder.add_worker(static_cast<unsigned>(w), counters[w].entries,
                        counters[w].scan.scans, counters[w].scan.pruned,
                        counters[w].scan.simd_blocks,
                        counters[w].scan.scalar_fallbacks);
  }
  recorder.finish();
}

/// Number of entries on each anti-diagonal, from the precomputed level
/// array. Only evaluated when a collector is installed.
std::vector<std::uint64_t> level_widths(const StateSpace& space,
                                        const std::vector<std::int32_t>& levels) {
  std::vector<std::uint64_t> widths(
      static_cast<std::size_t>(space.max_level()) + 1, 0);
  for (std::int32_t l : levels) ++widths[static_cast<std::size_t>(l)];
  return widths;
}

/// Computes one table entry from its flat index, digits, and level (shared
/// by all variants; the digits come from a walker or an odometer).
inline void process_entry(std::size_t index, std::span<const int> v, int level,
                          const RoundedInstance& rounded, const StateSpace& space,
                          const ConfigSet& configs, DpKernel kernel,
                          DpTable& table, WorkerCounters& counters) {
  if (index == 0) {
    table.set(0, 0, DpTable::kNoChoice);  // OPT(0,...,0) = 0
    ++counters.entries;
    return;
  }
  const EntryResult entry =
      kernel == DpKernel::kPerEntryEnum
          ? compute_entry_enumerated(index, v, rounded, space,
                                     table.values_data(), counters.scan.scans)
          : compute_entry(index, v, level, configs, table.values_data(),
                          counters.scan, kernel);
  table.set(index, entry.value, entry.choice);
  ++counters.entries;
}

void run_scan_per_level(const RoundedInstance& rounded, const StateSpace& space,
                        const ConfigSet& configs, DpKernel kernel,
                        Executor& executor, LoopSchedule schedule,
                        const CancellationToken& cancel, DpRun& run) {
  const std::vector<std::int32_t> levels = compute_levels(space, executor, cancel);
  const unsigned workers = executor.concurrency();
  std::vector<WorkerCounters> counters(workers);
  std::vector<std::vector<int>> scratch(
      workers, std::vector<int>(static_cast<std::size_t>(space.dims())));

  obs::DpRunRecorder recorder("scan-per-level", loop_schedule_name(schedule),
                              space.size(), space.max_level() + 1);
  const std::vector<std::uint64_t> widths =
      recorder.active() ? level_widths(space, levels) : std::vector<std::uint64_t>{};

  const auto counts = space.counts();
  const bool armed = cancel.valid();
  for (int level = 0; level <= space.max_level(); ++level) {
    fault_hit("dp.level");
    if (armed) cancel.check();
    const std::uint64_t level_t0 = recorder.level_begin();
    executor.parallel_for_ranges(
        space.size(),
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          // Stack-local so the amortisation counter never false-shares;
          // short ranges are covered by the dispatcher's per-call check.
          CancelCheck range_check(cancel, kCancelPollPeriod);
          // Decode lazily on the first index that passes the level filter
          // (paper Line 12), then maintain the digit odometer for the rest
          // of the range — amortised O(1) per scanned index instead of one
          // mixed-radix decode per processed entry. (Round-robin delivers
          // singleton ranges, where this degenerates to exactly the old
          // decode-per-processed-entry cost, never worse.)
          std::vector<int>& digits = scratch[worker];
          bool tracking = false;
          for (std::size_t i = begin; i < end; ++i) {
            if (armed) range_check.poll();
            if (levels[i] == level) {
              if (!tracking) {
                space.decode(i, digits);
                tracking = true;
              }
              process_entry(i, digits, level, rounded, space, configs, kernel,
                            run.table, counters[worker]);
            }
            if (tracking && i + 1 < end) {
              for (std::size_t d = digits.size(); d-- > 0;) {
                if (digits[d] < counts[d]) {
                  ++digits[d];
                  break;
                }
                digits[d] = 0;
              }
            }
          }
        },
        schedule, kScanChunk, cancel);
    recorder.level_end(level,
                       widths.empty() ? 0 : widths[static_cast<std::size_t>(level)],
                       level_t0);
  }
  publish_run(recorder, counters, run);
}

void run_bucketed(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, DpKernel kernel, Executor& executor,
                  const CancellationToken& cancel, DpRun& run) {
  const unsigned workers = executor.concurrency();
  std::vector<WorkerCounters> counters(workers);
  obs::DpRunRecorder recorder("bucketed", "block", space.size(),
                              space.max_level() + 1);
  const bool armed = cancel.valid();

  // Workers seek straight to their rank slice of each anti-diagonal and
  // walk it with the composition odometer. The walk is only O(1)-per-entry
  // over a *contiguous* rank range, so this sweep always uses the static
  // block decomposition (one seek per worker per level) — entries of one
  // level are uniform-cost, so there is nothing for dynamic/round-robin
  // balancing to win. This mirrors the SPMD split; the recorder reports
  // "block".
  LevelWalker proto(space);
  std::vector<LevelWalker> walkers(workers, proto);
  for (int level = 0; level <= space.max_level(); ++level) {
    fault_hit("dp.level");
    if (armed) cancel.check();
    const std::uint64_t width = proto.level_size(level);
    const std::uint64_t level_t0 = recorder.level_begin();
    executor.parallel_for_ranges(
        static_cast<std::size_t>(width),
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          CancelCheck range_check(cancel, kCancelPollPeriod);
          LevelWalker& walker = walkers[worker];
          walker.seek(level, begin);
          for (std::size_t rank = begin; rank < end; ++rank) {
            if (armed) range_check.poll();
            process_entry(walker.index(), walker.digits(), level, rounded,
                          space, configs, kernel, run.table, counters[worker]);
            if (rank + 1 < end) walker.next();
          }
        },
        LoopSchedule::kStatic, kStaticChunk, cancel);
    recorder.level_end(level, width, level_t0);
  }
  publish_run(recorder, counters, run);
}

void run_spmd(const RoundedInstance& rounded, const StateSpace& space,
              const ConfigSet& configs, DpKernel kernel, unsigned num_threads,
              const CancellationToken& cancel, DpRun& run) {
  Barrier barrier(num_threads);
  std::vector<WorkerCounters> counters(num_threads);
  // Every worker owns a contiguous rank block of each level ("block").
  obs::DpRunRecorder recorder("spmd", "block", space.size(),
                              space.max_level() + 1);

  // Barrier-safe stop protocol. A worker that observes a stop request must
  // NOT leave its level loop unilaterally — its peers would wait at the
  // barrier forever. Instead:
  //  * any worker may raise `stop_pending` (and skip its remaining slots of
  //    the current level);
  //  * only worker 0, after its own level-l slots and before the level-l
  //    barrier, stamps `stop_after = l`;
  //  * every worker tests `level > stop_after` at the top of the loop.
  // Worker 0 can only stamp the level it has itself reached, and the stamp
  // is sequenced before the barrier all peers pass through, so at the top of
  // level l+1 every worker uniformly sees l+1 > l and exits together.
  const bool armed = cancel.valid();
  std::atomic<bool> stop_pending{false};
  std::atomic<int> stop_after{std::numeric_limits<int>::max()};
  std::exception_ptr stop_error;  // written by worker 0 only

  auto worker_fn = [&](unsigned worker) {
    LevelWalker walker(space);
    for (int level = 0; level <= space.max_level(); ++level) {
      if (level > stop_after.load(std::memory_order_relaxed)) break;
      if (worker == 0) {
        // The injector may throw (Action::kThrow); capture instead of
        // unwinding past the barrier the peers are heading for.
        try {
          fault_hit("dp.level");
          if (armed && cancel.should_stop()) {
            stop_pending.store(true, std::memory_order_relaxed);
          }
        } catch (...) {
          stop_error = std::current_exception();
          stop_pending.store(true, std::memory_order_relaxed);
        }
      }
      // Worker 0 (the orchestrating thread) owns the level samples; timing
      // spans its own work plus the wait for the slowest peer.
      const std::uint64_t level_t0 = worker == 0 ? recorder.level_begin() : 0;
      std::uint32_t since_poll = 0;
      auto polled_stop = [&] {
        if (!armed || ++since_poll < kCancelPollPeriod) return false;
        since_poll = 0;
        if (cancel.should_stop() || stop_pending.load(std::memory_order_relaxed)) {
          stop_pending.store(true, std::memory_order_relaxed);
          return true;  // skip the level tail; the table is discarded anyway
        }
        return false;
      };
      // Contiguous block split of the level's rank range across threads.
      const std::uint64_t width = walker.level_size(level);
      const std::uint64_t begin = width * worker / num_threads;
      const std::uint64_t end = width * (worker + 1) / num_threads;
      if (begin < end) {
        walker.seek(level, begin);
        for (std::uint64_t rank = begin; rank < end; ++rank) {
          if (polled_stop()) break;
          process_entry(walker.index(), walker.digits(), level, rounded, space,
                        configs, kernel, run.table, counters[worker]);
          if (rank + 1 < end) walker.next();
        }
      }
      if (worker == 0 && stop_pending.load(std::memory_order_relaxed)) {
        stop_after.store(level, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();  // level boundary
      if (worker == 0) recorder.level_end(level, width, level_t0);
    }
  };

  // Peers hold at `start` until every spawn has succeeded: a peer already in
  // the level loop would wait at the barrier for participants that were
  // never created. A failed spawn stamps stop_after = -1 before releasing
  // the started peers, so they skip the loop entirely.
  std::latch start(1);
  std::vector<std::thread> threads;
  spawn_threads(
      threads, 1, num_threads, "spmd DP",
      [&](unsigned w) {
        start.wait();
        worker_fn(w);
      },
      [&] {
        stop_after.store(-1, std::memory_order_relaxed);
        start.count_down();
      });
  start.count_down();
  worker_fn(0);
  for (auto& t : threads) t.join();

  if (stop_error) std::rethrow_exception(stop_error);
  if (stop_pending.load(std::memory_order_relaxed)) {
    cancel.check();  // throws the typed error; sticky, so this cannot fall through
    throw CancelledError("spmd DP stopped");  // defensive: unreachable
  }
  publish_run(recorder, counters, run);
}

void run_counters(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, DpKernel kernel,
                  WorkStealingPool& pool, const CancellationToken& cancel,
                  DpRun& run, const char* variant) {
  const unsigned workers = pool.size();
  std::vector<WorkerCounters> counters(workers);

  LevelWalker proto(space);
  std::uint64_t max_width = 1;
  for (int l = 0; l <= space.max_level(); ++l) {
    max_width = std::max(max_width, proto.level_size(l));
  }
  const std::size_t target =
      std::clamp(static_cast<std::size_t>(max_width / (4 * workers)),
                 kCounterChunkMin, kCounterChunkMax);
  const DpChunkGraph graph = build_chunk_graph(space, target);

  obs::DpRunRecorder recorder(variant, "graph", space.size(),
                              space.max_level() + 1);

  std::vector<std::atomic<std::uint32_t>> deps(graph.chunks.size());
  std::vector<std::uint32_t> roots;
  for (std::size_t j = 0; j < graph.chunks.size(); ++j) {
    deps[j].store(graph.chunks[j].dep_chunks, std::memory_order_relaxed);
    if (graph.chunks[j].dep_chunks == 0) {
      roots.push_back(static_cast<std::uint32_t>(j));
    }
  }

  const bool armed = cancel.valid();
  std::vector<LevelWalker> walkers(workers, proto);

  auto body = [&](std::uint32_t id, WorkStealingPool::TaskContext& ctx) {
    const DpChunk& chunk = graph.chunks[id];
    const unsigned worker = ctx.worker();
    WorkerCounters& wc = counters[worker];
    fault_hit("dp.chunk");
    CancelCheck range_check(cancel, kCancelPollPeriod);
    LevelWalker& walker = walkers[worker];
    walker.seek(chunk.level, chunk.rank_begin);
    for (std::uint64_t rank = chunk.rank_begin; rank < chunk.rank_end; ++rank) {
      if (armed) range_check.poll();
      process_entry(walker.index(), walker.digits(), chunk.level, rounded,
                    space, configs, kernel, run.table, wc);
      if (rank + 1 < chunk.rank_end) walker.next();
    }
    // Publication chain of the table writes above: the acq_rel decrement
    // makes them visible to whichever worker performs the final decrement,
    // and the spawn hands them on through the deque slot's release/acquire
    // edge, so a dependant chunk always reads completed predecessors.
    for (std::uint32_t succ = chunk.succ_begin; succ < chunk.succ_end; ++succ) {
      if (deps[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ctx.spawn(succ);
      } else {
        ++wc.waits;
      }
    }
  };
  pool.run_tasks(roots, graph.chunks.size(), body, cancel);

  publish_run(recorder, counters, run);
  if (obs::Metrics* metrics = obs::current()) {
    for (std::size_t w = 0; w < counters.size(); ++w) {
      if (counters[w].waits > 0) {
        metrics->add(static_cast<unsigned>(w), obs::Counter::kDpChunkWaits,
                     counters[w].waits);
      }
    }
  }
}

}  // namespace

DpRun dp_parallel(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, const ParallelDpOptions& options) {
  const DpKernel kernel = resolve_dp_kernel(options.kernel);
  DpRun run{DpTable(space.size(), options.table_mode),
            DpTable::kInfeasible, DpStats{}};
  run.stats.table_size = space.size();
  run.stats.config_count = configs.count();
  run.stats.levels = space.max_level() + 1;
  run.stats.kernel = kernel;

  switch (options.variant) {
    case ParallelDpVariant::kScanPerLevel:
      PCMAX_REQUIRE(options.executor != nullptr,
                    "scan-per-level variant needs an executor");
      PCMAX_REQUIRE(options.sync_mode == DpSyncMode::kBarrier,
                    "scan-per-level supports only barrier sync");
      run_scan_per_level(rounded, space, configs, kernel, *options.executor,
                         options.schedule, options.cancel, run);
      break;
    case ParallelDpVariant::kBucketed:
      PCMAX_REQUIRE(options.executor != nullptr, "bucketed variant needs an executor");
      if (options.sync_mode == DpSyncMode::kCounters) {
        auto* ws = dynamic_cast<WorkStealingExecutor*>(options.executor);
        PCMAX_REQUIRE(ws != nullptr,
                      "counters sync needs the work-stealing executor");
        run_counters(rounded, space, configs, kernel, ws->pool(),
                     options.cancel, run, "bucketed-counters");
      } else {
        run_bucketed(rounded, space, configs, kernel, *options.executor,
                     options.cancel, run);
      }
      break;
    case ParallelDpVariant::kSpmd:
      PCMAX_REQUIRE(options.spmd_threads >= 1, "spmd needs at least one thread");
      if (options.sync_mode == DpSyncMode::kCounters) {
        // SPMD owns its threads; the counters realisation keeps that shape
        // with a run-scoped pool of the same width.
        WorkStealingPool pool(options.spmd_threads);
        run_counters(rounded, space, configs, kernel, pool, options.cancel,
                     run, "spmd-counters");
      } else {
        run_spmd(rounded, space, configs, kernel, options.spmd_threads,
                 options.cancel, run);
      }
      break;
  }

  run.machines_needed = run.table.value(space.size() - 1);
  return run;
}

}  // namespace pcmax
