// The kernel-dispatch contract behind --dp-kernel: the runtime selector
// never picks an ISA the host (or the build) does not have, forcing any
// kernel reproduces the reference DP byte for byte, and the degradation
// accounting (dp.simd_blocks / dp.scalar_fallbacks) matches the documented
// rules. The reference is the paper-faithful per-entry enumeration, a code
// path independent of the packed scans. These tests run on every host: the
// AVX2-specific assertions gate on dp_kernel_supported(), so a non-AVX
// machine (or a PCMAX_DISABLE_SIMD build) still exercises the full dispatch
// surface through the avx2 -> swar degradation.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

constexpr DpKernel kAllKernels[] = {DpKernel::kGlobalConfigs,
                                    DpKernel::kPerEntryEnum, DpKernel::kSwar,
                                    DpKernel::kAvx2};

RoundedInstance make_rounded(const std::vector<Time>& sizes,
                             const std::vector<int>& counts, Time target) {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(target, 4);
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    rounded.class_index.push_back(static_cast<int>(d) + 1);
    rounded.class_size.push_back(sizes[d]);
    rounded.class_count.push_back(counts[d]);
    rounded.class_jobs.emplace_back();
    rounded.total_long_jobs += counts[d];
  }
  return rounded;
}

void expect_identical_tables(const DpRun& reference, const DpRun& run,
                             const std::string& what) {
  ASSERT_EQ(run.table.size(), reference.table.size()) << what;
  EXPECT_EQ(run.machines_needed, reference.machines_needed) << what;
  for (std::size_t i = 0; i < reference.table.size(); ++i) {
    ASSERT_EQ(run.table.value(i), reference.table.value(i))
        << what << " value at entry " << i;
    ASSERT_EQ(run.table.choice(i), reference.table.choice(i))
        << what << " choice at entry " << i;
  }
}

TEST(KernelDispatch, NamesRoundTrip) {
  for (const DpKernel kernel : kAllKernels) {
    EXPECT_EQ(dp_kernel_from_name(dp_kernel_name(kernel)), kernel);
  }
  EXPECT_EQ(dp_kernel_from_name("auto"), DpKernel::kGlobalConfigs);
  EXPECT_THROW((void)dp_kernel_from_name("sse2"), InvalidArgumentError);
  EXPECT_THROW((void)dp_kernel_from_name(""), InvalidArgumentError);
}

TEST(KernelDispatch, SupportImpliesCompiled) {
  for (const DpKernel kernel : kAllKernels) {
    if (dp_kernel_supported(kernel)) {
      EXPECT_TRUE(dp_kernel_compiled(kernel)) << dp_kernel_name(kernel);
    }
  }
  // The portable kernels are unconditionally available.
  EXPECT_TRUE(dp_kernel_supported(DpKernel::kSwar));
  EXPECT_TRUE(dp_kernel_supported(DpKernel::kPerEntryEnum));
}

TEST(KernelDispatch, SelectBestIsAlwaysSupported) {
  const DpKernel best = select_best_kernel();
  EXPECT_TRUE(dp_kernel_supported(best)) << dp_kernel_name(best);
  // AVX2 whenever the host runs it, SWAR otherwise.
  EXPECT_EQ(best, dp_kernel_supported(DpKernel::kAvx2) ? DpKernel::kAvx2
                                                       : DpKernel::kSwar)
      << dp_kernel_name(best);
}

TEST(KernelDispatch, ResolveNeverYieldsAnUnsupportedKernel) {
  for (const DpKernel kernel : kAllKernels) {
    const DpKernel resolved = resolve_dp_kernel(kernel);
    EXPECT_TRUE(dp_kernel_supported(resolved))
        << dp_kernel_name(kernel) << " -> " << dp_kernel_name(resolved);
  }
  // Identity for the always-available kernels; the meta value resolves to
  // the host's best.
  EXPECT_EQ(resolve_dp_kernel(DpKernel::kGlobalConfigs), select_best_kernel());
  EXPECT_EQ(resolve_dp_kernel(DpKernel::kPerEntryEnum),
            DpKernel::kPerEntryEnum);
  EXPECT_EQ(resolve_dp_kernel(DpKernel::kSwar), DpKernel::kSwar);
  // AVX2 degrades to SWAR when unsupported.
  if (dp_kernel_supported(DpKernel::kAvx2)) {
    EXPECT_EQ(resolve_dp_kernel(DpKernel::kAvx2), DpKernel::kAvx2);
  } else {
    EXPECT_EQ(resolve_dp_kernel(DpKernel::kAvx2), DpKernel::kSwar);
  }
}

TEST(KernelDispatch, ForcedKernelsAreByteIdenticalOnRandomShapes) {
  Xoshiro256StarStar rng(0x51CCED);
  for (int round = 0; round < 10; ++round) {
    const Time target = uniform_int(rng, 25, 70);
    const int dims = static_cast<int>(uniform_int(rng, 1, 4));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);

    const DpRun reference =
        dp_bottom_up(rounded, space, configs, DpKernel::kPerEntryEnum);
    // Scan accounting reference: every scan kernel inspects the same level
    // prefix, and each of the |C| configs is either scanned or pruned.
    const DpRun scanned = dp_bottom_up(rounded, space, configs);
    EXPECT_EQ(scanned.stats.config_scans + scanned.stats.configs_pruned,
              (space.size() - 1) * configs.count());

    for (const DpKernel kernel : kAllKernels) {
      DpOptions options;
      options.kernel = kernel;
      const DpRun run = dp_bottom_up(rounded, space, configs, options);
      const std::string what = std::string(dp_kernel_name(kernel)) +
                               " round " + std::to_string(round);
      expect_identical_tables(reference, run, what);
      EXPECT_EQ(run.stats.kernel, resolve_dp_kernel(kernel)) << what;
      if (kernel != DpKernel::kPerEntryEnum) {
        EXPECT_EQ(run.stats.config_scans, scanned.stats.config_scans) << what;
        EXPECT_EQ(run.stats.configs_pruned, scanned.stats.configs_pruned)
            << what;
      }
      EXPECT_EQ(run.stats.entries_computed, reference.stats.entries_computed)
          << what;
    }
  }
}

TEST(KernelDispatch, SwarBoundaryDigitsMatchScalar) {
  // counts = 127 is the widest packable digit (the high bit must stay
  // spare); the SWAR/vector fits test must agree with the per-entry
  // enumeration's scalar comparisons right at that boundary.
  const RoundedInstance rounded = make_rounded({2}, {127}, 254);
  const std::vector<int> counts{127};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ASSERT_TRUE(configs.packable);

  const DpRun reference =
      dp_bottom_up(rounded, space, configs, DpKernel::kPerEntryEnum);
  for (const DpKernel kernel : {DpKernel::kSwar, DpKernel::kAvx2}) {
    DpOptions options;
    options.kernel = kernel;
    const DpRun run = dp_bottom_up(rounded, space, configs, options);
    expect_identical_tables(reference, run, dp_kernel_name(kernel));
  }
}

TEST(KernelDispatch, UnpackableSetDegradesToScalarWithAccounting) {
  // counts > 127 cannot be byte-packed, so every scan kernel takes the
  // scalar per-dimension loop — the only input that still reaches it. Each
  // engine must still produce the reference table, and a *forced vector*
  // kernel records the degradation.
  const RoundedInstance rounded = make_rounded({2}, {200}, 400);
  const std::vector<int> counts{200};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ASSERT_FALSE(configs.packable);

  const DpRun reference =
      dp_bottom_up(rounded, space, configs, DpKernel::kPerEntryEnum);
  WorkStealingExecutor executor(3);
  // Sequential bottom-up (no variant) plus the bucketed and SPMD sweeps.
  const std::optional<ParallelDpVariant> engines[] = {
      std::nullopt, ParallelDpVariant::kBucketed, ParallelDpVariant::kSpmd};
  for (const std::optional<ParallelDpVariant>& variant : engines) {
    for (const DpKernel kernel : {DpKernel::kSwar, DpKernel::kAvx2}) {
      const bool vector = resolve_dp_kernel(kernel) == DpKernel::kAvx2;
      if (kernel == DpKernel::kAvx2 && !vector) continue;  // not supported
      const std::string what =
          std::string(dp_kernel_name(kernel)) + "/" +
          (variant ? parallel_dp_variant_name(*variant) : "bottom-up");
      const DpRun run = [&] {
        if (!variant) return dp_bottom_up(rounded, space, configs, kernel);
        ParallelDpOptions options;
        options.executor = &executor;
        options.variant = *variant;
        options.spmd_threads = 3;
        options.kernel = kernel;
        return dp_parallel(rounded, space, configs, options);
      }();
      expect_identical_tables(reference, run, what);
      EXPECT_EQ(run.stats.simd_blocks, 0u) << what;
      if (vector) {
        // One fallback per non-origin entry: nothing was vectorised.
        EXPECT_EQ(run.stats.scalar_fallbacks, space.size() - 1) << what;
      } else {
        // SWAR was *asked* for the portable scan; only the vector kernel
        // counts its degradation.
        EXPECT_EQ(run.stats.scalar_fallbacks, 0u) << what;
      }
    }
  }
}

TEST(KernelDispatch, VectorKernelsCountSimdBlocks) {
  // A packable shape with wide level prefixes: a supported vector kernel
  // must actually vectorise (simd_blocks > 0), and the portable kernels
  // must not.
  const RoundedInstance rounded = make_rounded({5, 7, 9}, {6, 6, 6}, 45);
  const std::vector<int> counts{6, 6, 6};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ASSERT_TRUE(configs.packable);
  ASSERT_GE(configs.count(), 8u);

  for (const DpKernel kernel : {DpKernel::kPerEntryEnum, DpKernel::kSwar}) {
    DpOptions options;
    options.kernel = kernel;
    const DpRun run = dp_bottom_up(rounded, space, configs, options);
    EXPECT_EQ(run.stats.simd_blocks, 0u) << dp_kernel_name(kernel);
    EXPECT_EQ(run.stats.scalar_fallbacks, 0u) << dp_kernel_name(kernel);
  }
  if (dp_kernel_supported(DpKernel::kAvx2)) {
    DpOptions options;
    options.kernel = DpKernel::kAvx2;
    const DpRun run = dp_bottom_up(rounded, space, configs, options);
    EXPECT_GT(run.stats.simd_blocks, 0u);
  }
}

}  // namespace
}  // namespace pcmax
