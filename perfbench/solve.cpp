// solve-paper and solve-dp-heavy: a single caller solves instances back to
// back through SolverRegistry, each with parallel-ptas (work-stealing
// executor, T threads) and with ptas, and checks that both give the same
// valid schedule.
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "core/solver_registry.hpp"
#include "layers.hpp"
#include "parallel/executor.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using pcmax::Instance;
using pcmax::InstanceFamily;

constexpr int kMachines = 20;
constexpr int kJobs = 100;
constexpr std::size_t kKeptInstances = 20'000;

// solve-dp-heavy solves a fixed deck of job multisets. At epsilon = 0.2 one
// instance takes 15-700 ms, so the few dozen solves a run can afford would
// move the median by about a fifth from one random draw to the next. The
// seed shuffles the job order of each deck instance.
constexpr std::uint64_t kDeckSeed = 20170529;
constexpr int kDeckSize = 8;

// solve-paper solves fresh instances in blocks of this many (a multiple of
// the four families), each block in kPaperPasses passes.
constexpr std::size_t kPaperBlock = 40;
constexpr int kPaperPasses = 3;

constexpr int kSetUpRounds = 31;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  pcmax::SplitMix64 mixer(seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
  return mixer.next();
}

/// An instance and the id its best times are kept under.
struct Numbered {
  std::size_t id = 0;
  Instance instance;
};

/// The instance stream of one solve workload, in blocks: kPaperBlock fresh
/// instances (solve-paper) or the whole deck (solve-dp-heavy). A block is
/// solved in passes(), every pass solving each instance once with each
/// solver, and each instance keeps its best time over all of its solves.
/// The deck repeats block after block under the same ids, so its instances
/// keep their best over the whole run.
///
/// Best times, with the solves of one instance spread over a block or a run:
/// the vCPUs are shared with other machines, single-thread speed drifts by a
/// quarter within seconds, and a stolen core stalls every level barrier of
/// parallel-ptas for as long as it is gone.
class InstanceSource {
 public:
  InstanceSource(const std::string& workload, std::uint64_t seed) : seed_(seed) {
    if (workload == "solve-paper") {
      epsilon_ = 0.3;
      families_ = pcmax::speedup_families();
      passes_ = kPaperPasses;
      return;
    }
    epsilon_ = 0.2;
    families_ = {InstanceFamily::kUniform1To100, InstanceFamily::kUniform1To10N};
    passes_ = 1;
    for (int j = 0; j < kDeckSize; ++j) {
      const InstanceFamily family = families_[static_cast<std::size_t>(j) % families_.size()];
      const Instance base = pcmax::generate_instance(
          family, kMachines, kJobs, kDeckSeed,
          static_cast<std::uint64_t>(j) / families_.size());
      deck_.push_back({static_cast<std::size_t>(j),
                       permuted(base, mix(seed, static_cast<std::uint64_t>(j)))});
    }
  }

  [[nodiscard]] double epsilon() const { return epsilon_; }
  [[nodiscard]] int passes() const { return passes_; }
  [[nodiscard]] bool uses_deck() const { return !deck_.empty(); }
  [[nodiscard]] const std::vector<InstanceFamily>& families() const { return families_; }

  /// Block number `b` of the stream.
  [[nodiscard]] std::vector<Numbered> block(std::size_t b) const {
    if (uses_deck()) return deck_;
    std::vector<Numbered> out;
    for (std::size_t i = b * kPaperBlock; i < (b + 1) * kPaperBlock; ++i) {
      const InstanceFamily family = families_[i % families_.size()];
      out.push_back({i, pcmax::generate_instance(
                            family, kMachines, kJobs, seed_,
                            static_cast<std::uint64_t>(i / families_.size()))});
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  double epsilon_ = 0.3;
  int passes_ = 1;
  std::vector<InstanceFamily> families_;
  std::vector<Numbered> deck_;
};

/// What the program sets up: the executor and both solvers.
struct Engines {
  std::unique_ptr<pcmax::Executor> executor;
  std::unique_ptr<pcmax::Solver> parallel;
  std::unique_ptr<pcmax::Solver> sequential;
};

Engines build_engines(double epsilon, unsigned threads) {
  Engines engines;
  engines.executor = pcmax::make_executor("workstealing", threads);
  pcmax::SolverBuild build;
  build.epsilon = epsilon;
  build.executor = engines.executor.get();
  const pcmax::SolverRegistry& registry = pcmax::SolverRegistry::global();
  engines.parallel = registry.create("parallel-ptas", build);
  engines.sequential = registry.create("ptas", build);
  return engines;
}

/// Best times and quality of each distinct instance a phase solved.
struct Phase {
  std::map<std::size_t, double> parallel_ms;
  std::map<std::size_t, double> sequential_ms;
  std::map<std::size_t, double> ratio;
  std::uint64_t blocks = 0;

  [[nodiscard]] Samples parallel() const { return values(parallel_ms); }
  [[nodiscard]] Samples sequential() const { return values(sequential_ms); }
  static Samples values(const std::map<std::size_t, double>& by_id) {
    Samples s;
    for (const auto& [id, v] : by_id) s.add(v);
    return s;
  }
};

void keep_best(std::map<std::size_t, double>& best, std::size_t id, double ms) {
  const auto [it, inserted] = best.emplace(id, ms);
  if (!inserted) it->second = std::min(it->second, ms);
}

/// Solves one instance once with each solver, `parallel_first` choosing the
/// order, and checks that both schedules are valid and equal.
void solve_one(Engines& engines, const Numbered& item, std::uint64_t op,
               bool parallel_first, Tracer& tracer, Phase& phase, Outcome& out) {
  const Instance& instance = item.instance;
  std::optional<pcmax::Schedule> reference;
  for (int turn = 0; turn < 2; ++turn) {
    const bool parallel = (turn == 0) == parallel_first;
    pcmax::Solver& solver = parallel ? *engines.parallel : *engines.sequential;
    const char* name = parallel ? "parallel-ptas" : "ptas";
    ++out.attempted;
    pcmax::SolverResult result;
    double ms = 0.0;
    {
      const ScopedSpan span(tracer, parallel ? "ptas.solve_parallel" : "ptas.solve_sequential",
                            0, op);
      const double start = now_s();
      try {
        result = solver.solve(instance);
      } catch (const std::exception& e) {
        out.fail(std::string(name) + " threw: " + e.what());
        continue;
      }
      ms = (now_s() - start) * 1e3;
    }
    const ScopedSpan check(tracer, "bench.check", 0, op);
    if (!result.schedule.is_valid(instance) ||
        result.schedule.makespan(instance) != result.makespan) {
      out.fail(std::string("invalid schedule from ") + name + " on solve " + std::to_string(op));
      continue;
    }
    if (!reference) reference = result.schedule;
    if (!(result.schedule == *reference)) {
      out.fail("parallel-ptas and ptas schedules differ on solve " + std::to_string(op));
      continue;
    }
    keep_best(parallel ? phase.parallel_ms : phase.sequential_ms, item.id, ms);
    phase.ratio[item.id] = static_cast<double>(result.makespan) /
                           static_cast<double>(pcmax::makespan_lower_bound(instance));
  }
}

/// Solves whole blocks of the stream until `duration` seconds are used up
/// (at least one block); appends every solved instance to `solved`. When
/// `tracer` is enabled, odd blocks are solved with spans and kept in
/// `traced`, even ones without and kept in `plain`: the two interleave over
/// the same period, so comparing them measures what tracing costs and not
/// how the run drifted. Otherwise every block goes to `plain`.
void run_phase(Engines& engines, const InstanceSource& source, double duration,
               Tracer& tracer, Outcome& out, std::vector<Instance>& solved,
               Phase& plain, Phase& traced) {
  Tracer untraced(false);
  const double start = now_s();
  double last_block = 0.0;
  std::uint64_t op = 0;
  for (std::size_t b = 0;; ++b) {
    const double block_start = now_s();
    const bool trace_block = tracer.enabled() && b % 2 == 1;
    Phase& phase = trace_block ? traced : plain;
    const std::vector<Numbered> block = source.block(b);
    for (int pass = 0; pass < source.passes(); ++pass) {
      for (const Numbered& item : block) {
        const bool parallel_first =
            (item.id + b + static_cast<std::size_t>(pass)) % 2 == 0;
        solve_one(engines, item, ++op, parallel_first, trace_block ? tracer : untraced,
                  phase, out);
      }
    }
    for (const Numbered& item : block) {
      if (solved.size() < kKeptInstances) solved.push_back(item.instance);
    }
    ++phase.blocks;
    last_block = since_s(block_start);
    // A traced run stops after a traced block, so that both kinds have as
    // many blocks: on the deck, an instance keeps its best over its blocks.
    const bool may_stop = !tracer.enabled() || b % 2 == 1;
    if (may_stop && since_s(start) + last_block > duration) break;
  }
}

}  // namespace

Outcome run_solve(const Settings& settings, Tracer& tracer) {
  Outcome out;
  const InstanceSource source(settings.workload, settings.seed);

  // Set-up: the executor and both solvers, up to the first solve, several
  // times; the last set is kept.
  Samples setup_s;
  Engines engines;
  for (int round = 0; round < kSetUpRounds; ++round) {
    engines = Engines{};
    const double start = now_s();
    engines = build_engines(source.epsilon(), settings.threads);
    setup_s.add(since_s(start));
  }

  // A traced run measures for the whole time too, with traced and untraced
  // blocks interleaved, and then replays the layers.
  std::vector<Instance> solved;
  Phase phase;
  Phase traced;
  run_phase(engines, source, settings.seconds, tracer, out, solved, phase, traced);
  const Samples parallel = phase.parallel();
  const Samples sequential = phase.sequential();

  out.report["epsilon"] = source.epsilon();
  out.report["machines"] = kMachines;
  out.report["jobs"] = kJobs;
  pcmax::JsonValue families = pcmax::JsonValue::make_array();
  for (const InstanceFamily family : source.families()) {
    families.append(pcmax::family_name(family));
  }
  out.report["families"] = families;
  out.report["instances"] = source.uses_deck()
                                ? "fixed deck of " + std::to_string(kDeckSize) +
                                      " multisets, seed-shuffled job order"
                                : std::string("fresh per solve");
  out.report["passes_per_block"] = source.passes();
  out.report["blocks"] = phase.blocks;
  out.report["executor"] = engines.executor->name();
  out.report["executor_threads"] = engines.executor->concurrency();
  out.report["threads_beat_ptas"] = parallel.median() < sequential.median();
  out.report["ptas_over_parallel_p50"] =
      parallel.median() > 0.0 ? sequential.median() / parallel.median() : 0.0;

  if (!settings.trace) {
    double ratio_sum = 0.0;
    for (const auto& [id, r] : phase.ratio) ratio_sum += r;
    const std::size_t count = parallel.size();
    out.metric("solve_ms_p50", parallel.median(), "ms");
    out.metric("solve_ms_p90", parallel.quantile(0.9), "ms");
    out.metric("seq_solve_ms_p50", sequential.median(), "ms");
    std::uint64_t slo_met = 0;
    for (const auto& [id, ms] : phase.parallel_ms) slo_met += ms <= settings.slo_ms ? 1 : 0;
    out.metric("slo_met_frac",
               count > 0 ? static_cast<double>(slo_met) / static_cast<double>(count) : 0.0,
               "ratio");
    out.metric("throughput_rps",
               count > 0 ? static_cast<double>(count) / (parallel.sum() / 1e3) : 0.0,
               "1/s");
    out.metric("makespan_over_lb",
               phase.ratio.empty() ? 0.0
                                   : ratio_sum / static_cast<double>(phase.ratio.size()),
               "ratio");
    out.metric("setup_s", setup_s.median(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.samples("solve_ms", count);
    out.samples("seq_solve_ms", sequential.size());
    out.samples("setup_s", setup_s.size());
    return out;
  }

  const double base = parallel.median();
  out.metric("trace.overhead_frac",
             base > 0.0 ? traced.parallel().median() / base - 1.0 : 0.0, "ratio");
  out.report["untraced_solve_ms_p50"] = base;
  out.report["traced_solve_ms_p50"] = traced.parallel().median();
  out.samples("untraced_solve_ms", parallel.size());
  out.samples("traced_solve_ms", traced.parallel().size());

  const std::vector<Instance> distinct(
      solved.begin(),
      solved.begin() + static_cast<std::ptrdiff_t>(
                           source.uses_deck() ? std::min<std::size_t>(solved.size(), kDeckSize)
                                              : solved.size()));
  measure_ptas_layers(distinct, source.epsilon(), *engines.executor,
                      settings.seconds / 2, tracer, out);
  measure_cache_layers(solved, source.epsilon(),
                       shard_cache_capacity(std::max(1u, settings.threads - 1)),
                       tracer, out);
  return out;
}

}  // namespace perfbench
