// The one solve entry point: Solver::solve(instance, context = {}).
//
// Every registered solver must give the same answer whether the context is
// defaulted or passed empty, and the anytime heuristics must stop on a
// context that is already spent, returning their documented fallback
// instead of running to completion.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/annealing.hpp"
#include "algo/local_search.hpp"
#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "algo/ptas/ptas.hpp"
#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "core/solve_context.hpp"
#include "core/solver_registry.hpp"
#include "parallel/executor.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

/// Small enough for every registered solver: subset-dp needs m <= 3, the
/// brute-force references need few jobs, and the MILP closes quickly.
Instance entry_instance(ProblemVariant variant) {
  const Instance classic =
      generate_instance(InstanceFamily::kUniform1To100, 3, 9, 11, 0);
  if (variant != ProblemVariant::kCapacity) return classic;
  const std::vector<Time> times(classic.times().begin(), classic.times().end());
  return Instance::capacity_restricted(3, times, 2);
}

class SolveEntry : public ::testing::TestWithParam<std::string> {};

TEST_P(SolveEntry, DefaultContextMatchesAnEmptyContext) {
  const std::string& name = GetParam();
  const SolverRegistry& registry = SolverRegistry::global();
  const ProblemVariant variant =
      registry.supported_variants(name).contains(ProblemVariant::kClassic)
          ? ProblemVariant::kClassic
          : ProblemVariant::kCapacity;
  const Instance instance = entry_instance(variant);
  WorkStealingExecutor executor(2);
  SolverBuild build;
  build.executor = &executor;
  build.threads = 2;

  const SolverResult plain =
      registry.create_for(name, build, instance)->solve(instance);
  const SolverResult empty = registry.create_for(name, build, instance)
                                 ->solve(instance, SolveContext{});
  EXPECT_EQ(plain.schedule.assignment(instance),
            empty.schedule.assignment(instance));
  EXPECT_EQ(plain.makespan, empty.makespan);
  EXPECT_EQ(plain.proven_optimal, empty.proven_optimal);
  EXPECT_EQ(plain.notes, empty.notes);
  // Wall-clock stats differ run to run; the set of stats must not.
  ASSERT_EQ(plain.stats.size(), empty.stats.size());
  for (auto a = plain.stats.begin(), b = empty.stats.begin();
       a != plain.stats.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    if (a->first.find("seconds") == std::string::npos) {
      EXPECT_EQ(a->second, b->second) << a->first;
    }
  }
}

std::string solver_test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string id = info.param;
  for (char& c : id) {
    if (c == '-') c = '_';
  }
  return id;
}

INSTANTIATE_TEST_SUITE_P(EveryRegisteredSolver, SolveEntry,
                         ::testing::ValuesIn(SolverRegistry::global().names()),
                         solver_test_name);

/// LPT's classic counter-example: LPT gives 7, OPT is 6, and each anytime
/// heuristic below reaches 6 when it is allowed to run.
Instance lpt_gap_instance() { return Instance(2, {3, 3, 2, 2, 2}); }

SolveContext expired_context() {
  SolveContext context;
  context.deadline = Deadline::after_ms(0);
  return context;
}

SolveContext cancelled_context() {
  CancellationToken token = CancellationToken::make();
  token.request_cancel();
  return SolveContext::with_token(token);
}

TEST(SolveEntryStops, UnlimitedHeuristicsCloseTheLptGap) {
  const Instance instance = lpt_gap_instance();
  LptSolver lpt;
  EXPECT_EQ(lpt.solve(instance).makespan, 7);
  EXPECT_EQ(AnnealingSolver().solve(instance).makespan, 6);
  EXPECT_EQ(MultifitSolver().solve(instance).makespan, 6);
  EXPECT_EQ(LocalSearchSolver(lpt).solve(instance).makespan, 6);
}

TEST(SolveEntryStops, SpentContextStopsAnnealingAtItsLptStart) {
  const Instance instance = lpt_gap_instance();
  const SolverResult lpt = LptSolver().solve(instance);
  for (const SolveContext& context : {expired_context(), cancelled_context()}) {
    const SolverResult sa = AnnealingSolver().solve(instance, context);
    EXPECT_EQ(sa.schedule.assignment(instance), lpt.schedule.assignment(instance));
    EXPECT_EQ(sa.stats.at("accepted"), 0.0);
  }
}

TEST(SolveEntryStops, SpentContextStopsMultifitAtItsUpperBoundPacking) {
  const Instance instance = lpt_gap_instance();
  // CU = max(2 * ceil(total / m), max t) = 12 always admits FFD.
  Schedule upper(instance.machines());
  ASSERT_TRUE(first_fit_decreasing(instance, 12, &upper));
  for (const SolveContext& context : {expired_context(), cancelled_context()}) {
    const SolverResult multifit = MultifitSolver().solve(instance, context);
    EXPECT_EQ(multifit.schedule.assignment(instance),
              upper.assignment(instance));
    EXPECT_EQ(multifit.stats.at("final_capacity"), 12.0);
  }
}

TEST(SolveEntryStops, SpentContextStopsLocalSearchBeforeItsFirstRound) {
  const Instance instance = lpt_gap_instance();
  LptSolver lpt;
  const SolverResult start = lpt.solve(instance);
  for (const SolveContext& context : {expired_context(), cancelled_context()}) {
    const SolverResult polished = LocalSearchSolver(lpt).solve(instance, context);
    EXPECT_EQ(polished.schedule.assignment(instance),
              start.schedule.assignment(instance));
    EXPECT_EQ(polished.stats.at("ls_rounds"), 0.0);
  }
}

TEST(SolveEntryStops, CancelledContextStopsThePtasAndZeroLimitIsUnlimited) {
  // The PTAS is all-or-nothing: a stopped context throws instead of
  // returning a partial schedule. A zero time limit means no limit.
  const Instance instance(2, {3, 5, 4, 6, 2});
  EXPECT_THROW((void)PtasSolver(PtasOptions{}).solve(instance,
                                                     cancelled_context()),
               CancelledError);
  const SolverResult result = PtasSolver(PtasOptions{}).solve(
      instance, SolveContext::with_time_limit_ms(0));
  result.schedule.validate(instance);
}

}  // namespace
}  // namespace pcmax
