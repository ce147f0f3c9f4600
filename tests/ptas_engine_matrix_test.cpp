// Full-matrix equivalence sweep: every DP engine x kernel x epsilon must
// produce schedules with identical makespans on the same instance — the
// strongest statement of the paper's "same guarantees" claim this library
// can test mechanically.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/ptas/ptas.hpp"
#include "core/instance_gen.hpp"

namespace pcmax {
namespace {

using MatrixParam = std::tuple<DpEngine, DpKernel, double>;

class PtasEngineMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(PtasEngineMatrix, MatchesTheReferenceMakespan) {
  const auto [engine, kernel, epsilon] = GetParam();

  WorkStealingExecutor executor(2);
  for (const InstanceFamily family :
       {InstanceFamily::kUniform1To100, InstanceFamily::kUniformMTo2M1}) {
    const Instance instance = generate_instance(family, 4, 18, 2027, 0);

    // Reference: plain sequential bisection, global kernel.
    PtasOptions reference_options;
    reference_options.epsilon = epsilon;
    const Time reference =
        PtasSolver(reference_options).solve(instance).makespan;

    PtasOptions options;
    options.epsilon = epsilon;
    options.engine = engine;
    options.kernel = kernel;
    options.executor = &executor;
    options.spmd_threads = 2;
    const SolverResult result = PtasSolver(options).solve(instance);
    result.schedule.validate(instance);
    // Identical search path -> identical makespan.
    EXPECT_EQ(result.makespan, reference) << family_name(family);
  }
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [engine, kernel, epsilon] = info.param;
  std::string name = dp_engine_name(engine);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += kernel == DpKernel::kGlobalConfigs ? "_global" : "_perentry";
  name += "_e" + std::to_string(static_cast<int>(epsilon * 100));
  // One probe per search round; the suffix keeps the suite's names stable.
  name += "_w1";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PtasEngineMatrix,
    ::testing::Combine(
        ::testing::Values(DpEngine::kBottomUp, DpEngine::kParallelScan,
                          DpEngine::kParallelBucketed, DpEngine::kSpmd),
        ::testing::Values(DpKernel::kGlobalConfigs, DpKernel::kPerEntryEnum),
        ::testing::Values(0.5, 0.3)),
    matrix_name);

}  // namespace
}  // namespace pcmax
