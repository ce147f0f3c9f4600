// Problem-variant helpers layered over Instance: support sets for registry
// declarations, the structured mismatch error, and the capacity reduction
// that lets every classic P || C_max solver serve capacity-restricted
// instances unchanged.
//
// Capacity semantics (Jaykrishnan & Levin's parameter B, cluster form): at
// most B jobs may be in process during any unit time interval. With integer
// processing times and non-preemptive integer-aligned starts each busy unit
// interval of a machine holds exactly one job, so the restriction caps the
// number of *concurrently active machines* at B. Any feasible schedule's job
// intervals therefore have pointwise overlap <= B, and by interval-graph
// coloring those intervals can be re-hosted on B machines with unchanged
// start times — hence the variant is exactly P || C_max on
// min(m, B) machines. solve_variant_with() applies that reduction and lifts
// the schedule back to the original machine count; the brute-force reference
// in src/exact instead enumerates raw m-machine assignments and filters for
// feasibility, so the differential tests validate the reduction rather than
// assume it.
#pragma once

#include <array>
#include <initializer_list>
#include <memory>
#include <string>

#include "core/instance.hpp"
#include "core/solver.hpp"
#include "util/error.hpp"

namespace pcmax {

/// All variants, in tag order; handy for sweeps and declarative tables.
inline constexpr std::array<ProblemVariant, 3> kAllVariants = {
    ProblemVariant::kClassic, ProblemVariant::kCapacity,
    ProblemVariant::kIncremental};

/// A small immutable set of problem variants. SolverRegistry entries declare
/// one of these; lookup checks the requested instance's tag against it.
class VariantSet {
 public:
  constexpr VariantSet() = default;
  constexpr VariantSet(std::initializer_list<ProblemVariant> variants) {
    for (const ProblemVariant v : variants) mask_ |= bit(v);
  }

  /// The set containing every variant.
  [[nodiscard]] static constexpr VariantSet all() {
    return VariantSet{ProblemVariant::kClassic, ProblemVariant::kCapacity,
                      ProblemVariant::kIncremental};
  }

  [[nodiscard]] constexpr bool contains(ProblemVariant v) const {
    return (mask_ & bit(v)) != 0;
  }
  [[nodiscard]] constexpr bool empty() const { return mask_ == 0; }

  /// Pipe-joined tag names in tag order, e.g. "classic|incremental".
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(VariantSet, VariantSet) = default;

 private:
  static constexpr unsigned bit(ProblemVariant v) {
    return 1u << static_cast<unsigned>(v);
  }
  unsigned mask_ = 0;
};

/// Thrown by SolverRegistry::create when a solver is asked to handle an
/// instance whose variant it does not declare. Structured: callers can read
/// the solver name, the requested variant, and the declared support set
/// instead of parsing the message.
class VariantUnsupportedError : public InvalidArgumentError {
 public:
  VariantUnsupportedError(std::string solver, ProblemVariant requested,
                          VariantSet supported);

  [[nodiscard]] const std::string& solver() const { return solver_; }
  [[nodiscard]] ProblemVariant requested() const { return requested_; }
  [[nodiscard]] VariantSet supported() const { return supported_; }

 private:
  std::string solver_;
  ProblemVariant requested_;
  VariantSet supported_;
};

/// Machine count the DP/bounds machinery should use: min(m, B) for
/// capacity-restricted instances (see the reduction above), m otherwise.
[[nodiscard]] int variant_effective_machines(const Instance& instance);

/// The classic P || C_max twin a variant instance reduces to: effective
/// machine count, same processing times, classic tag. Classic instances are
/// returned unchanged (same value, copied).
[[nodiscard]] Instance variant_classic_twin(const Instance& instance);

/// Validates `schedule` against the *variant* semantics of `instance`: the
/// plain partition check for every variant, plus, for capacity-restricted
/// instances, that at most B machines are non-empty. Throws
/// InvalidArgumentError describing the first violation.
void validate_variant_schedule(const Instance& instance,
                               const Schedule& schedule);

/// True iff validate_variant_schedule would succeed.
[[nodiscard]] bool variant_schedule_feasible(const Instance& instance,
                                             const Schedule& schedule);

/// Runs a classic solver on a variant instance via the capacity reduction:
/// capacity-restricted instances are solved on their classic twin and the
/// schedule is lifted back to the original machine count (with
/// "variant.*" provenance notes); classic and incremental instances are
/// passed straight through, byte-identically.
SolverResult solve_variant_with(Solver& solver, const Instance& instance,
                                const SolveContext& context = {});

/// Wraps an owned solver so the wrapped pair accepts every variant the
/// reduction covers. The registry uses this to lift its classic builtins to
/// capacity support without touching the solver implementations.
class VariantAdapterSolver final : public Solver {
 public:
  explicit VariantAdapterSolver(std::unique_ptr<Solver> inner);

  [[nodiscard]] std::string name() const override;

 private:
  SolverResult solve_impl(const Instance& instance,
                          const SolveContext& context) override;

  std::unique_ptr<Solver> inner_;
};

}  // namespace pcmax
