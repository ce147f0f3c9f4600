#include "core/variant.hpp"

#include <algorithm>
#include <utility>

namespace pcmax {

std::string VariantSet::to_string() const {
  std::string out;
  for (const ProblemVariant v : kAllVariants) {
    if (!contains(v)) continue;
    if (!out.empty()) out += '|';
    out += variant_name(v);
  }
  return out.empty() ? "none" : out;
}

namespace {

std::string unsupported_message(const std::string& solver,
                                ProblemVariant requested,
                                VariantSet supported) {
  return "solver '" + solver + "' does not support variant '" +
         variant_name(requested) + "' (supported: " + supported.to_string() +
         ")";
}

}  // namespace

VariantUnsupportedError::VariantUnsupportedError(std::string solver,
                                                 ProblemVariant requested,
                                                 VariantSet supported)
    : InvalidArgumentError(unsupported_message(solver, requested, supported)),
      solver_(std::move(solver)),
      requested_(requested),
      supported_(supported) {}

int variant_effective_machines(const Instance& instance) {
  if (instance.variant() != ProblemVariant::kCapacity) {
    return instance.machines();
  }
  const Time capacity = instance.capacity();
  const Time machines = static_cast<Time>(instance.machines());
  return static_cast<int>(std::min(machines, capacity));
}

Instance variant_classic_twin(const Instance& instance) {
  const std::span<const Time> times = instance.times();
  return Instance(variant_effective_machines(instance),
                  std::vector<Time>(times.begin(), times.end()));
}

void validate_variant_schedule(const Instance& instance,
                               const Schedule& schedule) {
  schedule.validate(instance);
  if (instance.variant() != ProblemVariant::kCapacity) return;
  int active = 0;
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    if (!schedule.jobs_on(machine).empty()) ++active;
  }
  // All n jobs start in the schedule's first unit interval's machine slots
  // over time; the peak number of concurrently busy machines under
  // back-to-back packing is exactly the number of non-empty machines (every
  // non-empty machine is busy during [0, 1)).
  PCMAX_REQUIRE(static_cast<Time>(active) <= instance.capacity(),
                "capacity-restricted schedule uses " + std::to_string(active) +
                    " active machines, capacity B = " +
                    std::to_string(instance.capacity()));
}

bool variant_schedule_feasible(const Instance& instance,
                               const Schedule& schedule) {
  try {
    validate_variant_schedule(instance, schedule);
    return true;
  } catch (const InvalidArgumentError&) {
    return false;
  }
}

namespace {

/// Re-hosts a schedule of the reduced twin (min(m, B) machines) on the
/// original machine count. Machine indices are preserved, so the lifted
/// schedule trivially satisfies the capacity bound and keeps its makespan.
SolverResult lift_reduced_result(const Instance& original,
                                 const Instance& twin, SolverResult result) {
  Schedule widened(original.machines());
  for (int machine = 0; machine < result.schedule.machines(); ++machine) {
    for (const int job : result.schedule.jobs_on(machine)) {
      widened.assign(machine, job);
    }
  }
  result.schedule = std::move(widened);
  result.notes["variant"] = variant_name(original.variant());
  result.notes["variant.effective_machines"] =
      std::to_string(twin.machines());
  return result;
}

}  // namespace

SolverResult solve_variant_with(Solver& solver, const Instance& instance,
                                const SolveContext& context) {
  if (instance.variant() != ProblemVariant::kCapacity) {
    return solver.solve(instance, context);
  }
  const Instance twin = variant_classic_twin(instance);
  return lift_reduced_result(instance, twin, solver.solve(twin, context));
}

VariantAdapterSolver::VariantAdapterSolver(std::unique_ptr<Solver> inner)
    : inner_(std::move(inner)) {
  PCMAX_REQUIRE(inner_ != nullptr, "VariantAdapterSolver needs a solver");
}

std::string VariantAdapterSolver::name() const { return inner_->name(); }

SolverResult VariantAdapterSolver::solve_impl(const Instance& instance,
                                              const SolveContext& context) {
  return solve_variant_with(*inner_, instance, context.without_scopes());
}

}  // namespace pcmax
