// Solver is an interface; this translation unit anchors its vtable and the
// one public entry point.
#include "core/solver.hpp"

namespace pcmax {

SolverResult Solver::solve(const Instance& instance,
                           const SolveContext& context) {
  const ContextScopes scopes(context);
  return solve_impl(instance, context);
}

}  // namespace pcmax
