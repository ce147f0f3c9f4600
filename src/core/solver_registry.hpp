// Uniform solver construction — the registry half of API v2.
//
// Before this, every driver grew its own solver-construction switch: the CLI
// had make_solver(), the solve service hand-built ResilientOptions, the
// benches instantiated concrete classes, and adding a solver meant touching
// each of them. SolverRegistry centralises the mapping
//
//     name  →  factory(SolverBuild)  →  unique_ptr<Solver>
//
// so the CLI, the resilient ladder, the portfolio racer list, and the solve
// service all construct solvers the same way, and a new solver registers
// once. The process-wide global() instance comes preloaded with every
// built-in solver; tests and plugins may register additional factories (or
// build private registries) without touching the builtins.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/solver.hpp"
#include "core/variant.hpp"

namespace pcmax {

class Executor;

/// Construction-time parameters a factory may consult. One flat struct
/// rather than per-solver option types: a driver fills in what it has and
/// every factory picks what it needs (unused fields are ignored), which is
/// what lets heterogeneous racers share one configuration.
struct SolverBuild {
  /// PTAS accuracy (k = ceil(1/epsilon)).
  double epsilon = 0.3;

  /// Thread count for solvers that own their threads ("spmd-ptas").
  unsigned threads = 1;

  /// Executor for the pool-based parallel engines ("parallel-ptas").
  /// Non-owning; must outlive the constructed solver.
  Executor* executor = nullptr;

  /// Per-entry DP kernel of the PTAS solvers: "auto" (default, the fastest
  /// fits-test kernel the host supports), "per-entry-enum", "swar", or
  /// "avx2" (an unsupported avx2 degrades to swar; results are identical
  /// for every kernel). A string rather than the DpKernel enum so this
  /// header stays below the algo layer.
  std::string dp_kernel = "auto";

  /// Wall-clock budget of the exact solvers ("ip", "milp"), seconds.
  double exact_seconds = 300.0;

  /// Node budget of the "milp" branch-and-bound.
  std::uint64_t milp_max_nodes = 200'000;

  /// Total-processing-time cap of the "subset-dp" pseudo-polynomial DP.
  Time subset_dp_max_total = 1'000'000;

  /// Binary-search depth of "multifit" (and the resilient fallback rung).
  int multifit_iterations = 10;

  /// Round cap of the resilient local-search polish rung.
  std::uint64_t local_search_rounds = 10'000;

  /// Stage-1 toggle of the "resilient" ladder.
  bool ptas_enabled = true;
};

/// Name -> factory map. Thread-safe; factories must be thread-safe to call.
///
/// Variant-aware: every entry declares which ProblemVariants its solver can
/// serve, and variant-checked creation rejects mismatches with a structured
/// VariantUnsupportedError (solver name + requested variant + declared set)
/// instead of silently solving the wrong problem. Entries registered through
/// the legacy two-argument register_solver default to classic-only.
class SolverRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Solver>(const SolverBuild& build)>;

  /// Registers `factory` under `name` with classic-only variant support;
  /// throws InvalidArgumentError when the name is already taken (builtins
  /// included).
  void register_solver(const std::string& name, Factory factory);

  /// Registers `factory` declaring explicit variant support. When
  /// `variant_native` is false (the default) the factory builds a classic
  /// solver and variant-checked creation wraps it in a VariantAdapterSolver
  /// for capacity-restricted instances (the min(m, B) reduction); when true
  /// the solver consumes variant-tagged instances itself and is never
  /// wrapped (e.g. the capacity brute-force reference).
  void register_solver(const std::string& name, Factory factory,
                       VariantSet variants, bool variant_native = false);

  /// True when `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Constructs the named solver for classic P || C_max. Exactly
  /// create(name, build, ProblemVariant::kClassic); kept as the common-case
  /// spelling. Throws InvalidArgumentError for unknown names (the message
  /// lists what IS registered, for CLI error quality) and
  /// VariantUnsupportedError for classic-incapable solvers.
  [[nodiscard]] std::unique_ptr<Solver> create(const std::string& name,
                                               const SolverBuild& build) const;

  /// Variant-checked construction: rejects entries that do not declare
  /// `variant` with a VariantUnsupportedError, and wraps non-native solvers
  /// in the capacity reduction adapter when `variant` is kCapacity.
  [[nodiscard]] std::unique_ptr<Solver> create(const std::string& name,
                                               const SolverBuild& build,
                                               ProblemVariant variant) const;

  /// Convenience: variant-checked construction for a concrete instance.
  [[nodiscard]] std::unique_ptr<Solver> create_for(
      const std::string& name, const SolverBuild& build,
      const Instance& instance) const {
    return create(name, build, instance.variant());
  }

  /// The variant set `name` declares. Throws InvalidArgumentError for
  /// unknown names.
  [[nodiscard]] VariantSet supported_variants(const std::string& name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Registered names declaring support for `variant`, sorted.
  [[nodiscard]] std::vector<std::string> names_supporting(
      ProblemVariant variant) const;

  /// The process-wide registry, preloaded with the built-in solvers:
  /// lpt, ls, ldm, multifit, ptas, parallel-ptas, spmd-ptas, subset-dp,
  /// ip, milp, resilient (all variants, via the reduction adapter), and
  /// capacity-brute (capacity only, variant-native).
  static SolverRegistry& global();

 private:
  struct Entry {
    Factory factory;
    VariantSet variants{ProblemVariant::kClassic};
    bool variant_native = false;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> factories_;
};

}  // namespace pcmax
