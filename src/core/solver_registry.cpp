#include "core/solver_registry.hpp"

#include <algorithm>
#include <utility>

#include "algo/ldm.hpp"
#include "algo/list_scheduling.hpp"
#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "algo/ptas/ptas.hpp"
#include "core/resilient_solver.hpp"
#include "exact/brute_force.hpp"
#include "exact/exact.hpp"
#include "exact/subset_dp.hpp"
#include "mip/pcmax_ip.hpp"
#include "util/error.hpp"

namespace pcmax {

void SolverRegistry::register_solver(const std::string& name, Factory factory) {
  register_solver(name, std::move(factory),
                  VariantSet{ProblemVariant::kClassic});
}

void SolverRegistry::register_solver(const std::string& name, Factory factory,
                                     VariantSet variants,
                                     bool variant_native) {
  PCMAX_REQUIRE(factory != nullptr, "solver factory must be callable");
  PCMAX_REQUIRE(!variants.empty(), "solver must declare at least one variant");
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = factories_.emplace(
      name, Entry{std::move(factory), variants, variant_native});
  if (!inserted) {
    throw InvalidArgumentError("solver name already registered: " + name);
  }
}

bool SolverRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return factories_.count(name) != 0;
}

std::unique_ptr<Solver> SolverRegistry::create(const std::string& name,
                                               const SolverBuild& build) const {
  return create(name, build, ProblemVariant::kClassic);
}

std::unique_ptr<Solver> SolverRegistry::create(const std::string& name,
                                               const SolverBuild& build,
                                               ProblemVariant variant) const {
  Entry entry;
  {
    std::lock_guard lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) entry = it->second;
  }
  if (entry.factory == nullptr) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw InvalidArgumentError("unknown solver: " + name +
                               " (registered: " + known + ")");
  }
  if (!entry.variants.contains(variant)) {
    throw VariantUnsupportedError(name, variant, entry.variants);
  }
  std::unique_ptr<Solver> solver = entry.factory(build);
  // Classic solvers reach capacity-restricted instances through the
  // min(m, B) reduction; every other variant passes through untouched, so
  // classic construction stays byte-identical to the pre-variant registry.
  if (variant == ProblemVariant::kCapacity && !entry.variant_native) {
    solver = std::make_unique<VariantAdapterSolver>(std::move(solver));
  }
  return solver;
}

VariantSet SolverRegistry::supported_variants(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = factories_.find(name);
  PCMAX_REQUIRE(it != factories_.end(), "unknown solver: " + name);
  return it->second.variants;
}

std::vector<std::string> SolverRegistry::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> result;
  result.reserve(factories_.size());
  for (const auto& [name, entry] : factories_) result.push_back(name);
  return result;  // std::map iterates sorted
}

std::vector<std::string> SolverRegistry::names_supporting(
    ProblemVariant variant) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> result;
  for (const auto& [name, entry] : factories_) {
    if (entry.variants.contains(variant)) result.push_back(name);
  }
  return result;
}

namespace {

PtasOptions ptas_options_from(const SolverBuild& build, DpEngine engine) {
  PtasOptions options;
  options.epsilon = build.epsilon;
  options.engine = engine;
  options.executor = build.executor;
  options.spmd_threads = std::max(1u, build.threads);
  options.kernel = dp_kernel_from_name(build.dp_kernel);
  return options;
}

void register_builtins(SolverRegistry& registry) {
  // Every classic builtin serves all variants: capacity-restricted instances
  // go through the registry's reduction adapter, incremental instances are
  // the classic problem per epoch. The brute-force capacity reference below
  // is the deliberate counter-example — capacity-only and variant-native.
  const auto register_classic = [&registry](const char* name,
                                            SolverRegistry::Factory factory) {
    registry.register_solver(name, std::move(factory), VariantSet::all());
  };
  register_classic("lpt", [](const SolverBuild&) {
    return std::make_unique<LptSolver>();
  });
  register_classic("ls", [](const SolverBuild&) {
    return std::make_unique<ListSchedulingSolver>();
  });
  register_classic("ldm", [](const SolverBuild&) {
    return std::make_unique<LdmSolver>();
  });
  register_classic("multifit", [](const SolverBuild& build) {
    return std::make_unique<MultifitSolver>(build.multifit_iterations);
  });
  register_classic("ptas", [](const SolverBuild& build) {
    return std::make_unique<PtasSolver>(
        ptas_options_from(build, DpEngine::kBottomUp));
  });
  register_classic("parallel-ptas", [](const SolverBuild& build) {
    PCMAX_REQUIRE(build.executor != nullptr,
                  "parallel-ptas requires SolverBuild.executor");
    return std::make_unique<PtasSolver>(
        ptas_options_from(build, DpEngine::kParallelBucketed));
  });
  register_classic("spmd-ptas", [](const SolverBuild& build) {
    return std::make_unique<PtasSolver>(
        ptas_options_from(build, DpEngine::kSpmd));
  });
  register_classic("subset-dp", [](const SolverBuild& build) {
    return std::make_unique<SubsetDpSolver>(build.subset_dp_max_total);
  });
  register_classic("ip", [](const SolverBuild& build) {
    ExactSolverOptions options;
    options.max_total_seconds = build.exact_seconds;
    return std::make_unique<ExactSolver>(options);
  });
  register_classic("milp", [](const SolverBuild& build) {
    MipOptions options;
    options.max_nodes = build.milp_max_nodes;
    options.max_seconds = build.exact_seconds;
    return std::make_unique<PcmaxIpSolver>(options);
  });
  register_classic("resilient", [](const SolverBuild& build) {
    ResilientOptions options;
    options.ptas = ptas_options_from(build, DpEngine::kBottomUp);
    options.ptas_enabled = build.ptas_enabled;
    options.multifit_iterations = build.multifit_iterations;
    options.local_search_rounds = build.local_search_rounds;
    return std::make_unique<ResilientSolver>(options);
  });
  registry.register_solver(
      "capacity-brute",
      [](const SolverBuild&) { return std::make_unique<CapacityBruteForceSolver>(); },
      VariantSet{ProblemVariant::kCapacity}, /*variant_native=*/true);
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  // Leaked singleton (never destroyed): factories may be consulted from
  // worker threads during static destruction of a client binary.
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

}  // namespace pcmax
