#!/usr/bin/env bash
# Full verification sweep: a Release tree running the whole test suite, a
# ThreadSanitizer tree running the concurrency-heavy tests (ctest label
# `sanitize`), an UndefinedBehaviorSanitizer tree running the whole suite,
# and a pair of SIMD configuration trees exercising the DP kernel family at
# both extremes. Usage:
#
#   tools/check.sh            # all trees
#   tools/check.sh release    # Release tree + full suite only
#   tools/check.sh tsan       # TSan tree + `ctest -L sanitize` only
#   tools/check.sh ubsan      # UBSan tree + full suite only
#   tools/check.sh simd       # forced -mavx2 tree + PCMAX_DISABLE_SIMD tree
#
# The Release run repeats the `bench-smoke`, `service`, `service-sharded`,
# `chaos`, `variants`, and `headers` labels explicitly at the end so bench
# bit-rot
# (flag parsing, JSON export), batch-service regressions, sharding
# equivalence drift (the differential byte-equality blitz in
# tests/service_shard_equivalence_test.cpp plus the SolveFuture suite),
# chaos-harness drift (the soak in tests/chaos_soak_test.cpp storms every
# registered fault site), and non-self-contained public headers
# (tools/check_headers.sh) fail loudly even when someone trims the main
# ctest invocation. bench-smoke includes micro_pool (the work-stealing
# microbench behind BENCH_executor.json) and service_storm — both the
# single-shard arm and the sharded arm with its scale section — behind
# BENCH_storm.json. The TSan tree picks the chaos soak and the async
# SolveFuture stress up twice: they carry `sanitize` alongside their own
# labels.
#
# Build trees live in build-check/, build-simd/, build-nosimd/, build-tsan/
# and build-ubsan/ so they never clobber a developer's main build/
# directory.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
mode="${1:-all}"

run_release() {
  echo "== Release tree: full suite =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-check -j "$jobs"
  ctest --test-dir build-check --output-on-failure -j "$jobs"
  echo "== Release tree: bench smoke =="
  ctest --test-dir build-check --output-on-failure -L bench-smoke
  echo "== Release tree: service suite =="
  ctest --test-dir build-check --output-on-failure -L service
  echo "== Release tree: sharding equivalence + async futures =="
  ctest --test-dir build-check --output-on-failure -L service-sharded
  echo "== Release tree: chaos soak =="
  ctest --test-dir build-check --output-on-failure -L chaos
  echo "== Release tree: problem variants (capacity + incremental) =="
  ctest --test-dir build-check --output-on-failure -L variants
  echo "== Release tree: header self-containment =="
  ctest --test-dir build-check --output-on-failure -L headers
}

run_simd() {
  # Two trees at the extremes of the kernel-dispatch matrix (see
  # docs/performance.md): one compiled with an explicit -mavx2 so the AVX2
  # scan kernel is definitely built, and one with PCMAX_DISABLE_SIMD=ON so
  # the AVX2 kernel is compiled out and `auto` resolves to SWAR. Both
  # run the kernel-sensitive tests — the crosscheck matrix asserts every
  # kernel x engine x table-mode x thread-count combination is
  # byte-identical, so these trees catch miscompiled kernels and broken
  # avx2 -> swar degradation respectively.
  local simd_tests=(ptas_dp_crosscheck_test ptas_kernel_dispatch_test
                    ptas_config_enum_test ptas_dp_test)
  echo "== SIMD tree (-mavx2): DP kernel tests =="
  cmake -B build-simd -S . -DCMAKE_BUILD_TYPE=Release \
    -DPCMAX_SIMD_FLAGS=-mavx2
  cmake --build build-simd -j "$jobs" --target "${simd_tests[@]}"
  for t in "${simd_tests[@]}"; do "./build-simd/tests/$t"; done
  echo "== No-SIMD tree (PCMAX_DISABLE_SIMD=ON): DP kernel tests =="
  cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=Release \
    -DPCMAX_DISABLE_SIMD=ON
  cmake --build build-nosimd -j "$jobs" --target "${simd_tests[@]}"
  for t in "${simd_tests[@]}"; do "./build-nosimd/tests/$t"; done
}

run_tsan() {
  echo "== ThreadSanitizer tree: ctest -L sanitize =="
  # Every thread the library starts (work-stealing pool, SPMD DP, service
  # shards) runs our own code, so the TSan tree builds and checks all of it.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPCMAX_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L sanitize
  echo "== ThreadSanitizer tree: sharding equivalence + async futures =="
  ctest --test-dir build-tsan --output-on-failure -L service-sharded
  echo "== ThreadSanitizer tree: problem variants =="
  # The variant differential suite drives IncrementalSession's prepared
  # submissions and the capacity adapter through live service threads.
  ctest --test-dir build-tsan --output-on-failure -L variants
}

run_ubsan() {
  echo "== UndefinedBehaviorSanitizer tree: full suite =="
  # Built with -fno-sanitize-recover, so the first report aborts its test.
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPCMAX_SANITIZE=undefined
  cmake --build build-ubsan -j "$jobs"
  ctest --test-dir build-ubsan --output-on-failure -j "$jobs" -LE bench-smoke
  # The bench smokes gate wall-clock ratios; run them one at a time, as
  # the Release arm does, so parallel tests do not skew the timings.
  ctest --test-dir build-ubsan --output-on-failure -L bench-smoke
}

case "$mode" in
  all) run_release; run_simd; run_tsan; run_ubsan ;;
  release) run_release ;;
  tsan) run_tsan ;;
  ubsan) run_ubsan ;;
  simd) run_simd ;;
  *) echo "usage: tools/check.sh [all|release|tsan|ubsan|simd]" >&2; exit 2 ;;
esac

echo "check.sh: all requested suites passed"
