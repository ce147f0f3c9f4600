#include "algo/ptas/multisection.hpp"

#include <gtest/gtest.h>

#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/ptas.hpp"
#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "exact/brute_force.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

DpBackendFn bottom_up_backend() {
  return [](const RoundedInstance& rounded, const StateSpace& space,
            const ConfigSet& configs) {
    return dp_bottom_up(rounded, space, configs);
  };
}

TEST(Multisection, OneWayDegeneratesToBisection) {
  for (std::uint64_t index = 0; index < 4; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To100, 3, 12, 9, index);
    const BisectionResult bisection =
        bisect_target_makespan(instance, 4, bottom_up_backend(), {});
    const MultisectionResult multi =
        multisect_target_makespan(instance, 4, bottom_up_backend(), {}, 1);
    EXPECT_EQ(multi.t_star, bisection.t_star) << "#" << index;
    EXPECT_EQ(multi.rounds.size(), bisection.trace.size());
  }
}

TEST(Multisection, WiderSpeculationUsesFewerRounds) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10N, 4, 20, 5, 0);
  const MultisectionResult narrow =
      multisect_target_makespan(instance, 4, bottom_up_backend(), {}, 1);
  const MultisectionResult wide =
      multisect_target_makespan(instance, 4, bottom_up_backend(), {}, 7);
  EXPECT_LT(wide.rounds.size(), narrow.rounds.size());
}

TEST(Multisection, TStarStaysWithinBoundsAndBelowOptimum) {
  for (const unsigned ways : {2u, 3u, 5u}) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      const Instance instance =
          generate_instance(InstanceFamily::kUniform1To100, 3, 10, 13, index);
      const MultisectionResult multi =
          multisect_target_makespan(instance, 4, bottom_up_backend(), {}, ways);
      EXPECT_GE(multi.t_star, makespan_lower_bound(instance));
      EXPECT_LE(multi.t_star, makespan_upper_bound(instance));
      EXPECT_LE(multi.t_star, brute_force_optimum(instance))
          << "ways=" << ways << " #" << index;
    }
  }
}

TEST(Multisection, FinalTargetIsFeasibleWhenReprobed) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10, 4, 18, 17, 0);
  const MultisectionResult multi =
      multisect_target_makespan(instance, 4, bottom_up_backend(), {}, 4);
  const DpAtTarget at =
      run_dp_at(instance, multi.t_star, 4, bottom_up_backend(), {});
  EXPECT_NE(at.run.machines_needed, DpTable::kInfeasible);
  EXPECT_LE(at.run.machines_needed, instance.machines());
}

TEST(Multisection, RejectsZeroWays) {
  const Instance instance(2, {3, 4});
  EXPECT_THROW((void)multisect_target_makespan(instance, 4, bottom_up_backend(),
                                               {}, 0),
               InvalidArgumentError);
}

TEST(Multisection, AsBisectionFlattensAllProbes) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 19, 0);
  const MultisectionResult multi =
      multisect_target_makespan(instance, 4, bottom_up_backend(), {}, 3);
  const BisectionResult flat = multi.as_bisection();
  std::size_t probes = 0;
  for (const MultisectionRound& round : multi.rounds) probes += round.probes.size();
  EXPECT_EQ(flat.trace.size(), probes);
  EXPECT_EQ(flat.t_star, multi.t_star);
}

TEST(SpeculativePtas, MatchesTheGuaranteeAndValidatesSchedules) {
  for (const unsigned speculation : {2u, 4u}) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      const Instance instance =
          generate_instance(InstanceFamily::kUniform1To100, 3, 12, 23, index);
      PtasOptions options;
      options.speculation = speculation;
      PtasSolver solver(options);
      const SolverResult result = solver.solve(instance);
      result.schedule.validate(instance);
      const Time opt = brute_force_optimum(instance);
      EXPECT_LE(static_cast<double>(result.makespan),
                1.3 * static_cast<double>(opt))
          << "speculation=" << speculation << " #" << index;
    }
  }
}

TEST(SpeculativePtas, UsuallyMatchesTheBisectionMakespan) {
  // Rounded feasibility is monotone on these instances, so bisection and
  // multisection settle on the same T* and schedule.
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10, 4, 20, 29, 0);
  const SolverResult plain = PtasSolver(PtasOptions{}).solve(instance);
  PtasOptions options;
  options.speculation = 8;
  const SolverResult speculative = PtasSolver(options).solve(instance);
  EXPECT_EQ(speculative.makespan, plain.makespan);
}

TEST(SpeculativePtas, ComposesWithParallelDpEngines) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 16, 37, 0);
  WorkStealingExecutor executor(2);
  PtasOptions options;
  options.speculation = 3;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = &executor;
  PtasSolver solver(options);
  const SolverResult result = solver.solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, PtasSolver(PtasOptions{}).solve(instance).makespan);
}

}  // namespace
}  // namespace pcmax
