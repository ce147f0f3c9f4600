// Umbrella header: the full public API of the pcmax library.
//
// A reproduction of "A Parallel Approximation Algorithm for Scheduling
// Parallel Identical Machines" (Ghalami & Grosu, 2017). See README.md for a
// quickstart and DESIGN.md for the architecture.
#pragma once

#include "core/bounds.hpp"
#include "core/breaker.hpp"
#include "core/fingerprint.hpp"
#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "core/schedule.hpp"
#include "core/gantt.hpp"
#include "core/io.hpp"
#include "core/solve_context.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "core/variant.hpp"
#include "core/resilient_solver.hpp"
#include "core/portfolio.hpp"

#include "algo/list_scheduling.hpp"
#include "algo/lpt.hpp"
#include "algo/annealing.hpp"
#include "algo/ldm.hpp"
#include "algo/local_search.hpp"
#include "algo/multifit.hpp"
#include "algo/ptas/ptas.hpp"

#include "exact/brute_force.hpp"
#include "exact/exact.hpp"
#include "exact/lower_bounds.hpp"
#include "exact/subset_dp.hpp"

#include "mip/pcmax_ip.hpp"

#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"

#include "parallel/bounded_queue.hpp"
#include "parallel/executor.hpp"
#include "parallel/executor_lanes.hpp"
#include "parallel/parallel_sort.hpp"

#include "service/batch_report.hpp"
#include "service/incremental.hpp"
#include "service/result_cache.hpp"
#include "service/solve_service.hpp"

#include "sim/event_sim.hpp"
#include "sim/robustness.hpp"

#include "harness/experiment.hpp"
#include "harness/calibration.hpp"
#include "harness/scaling.hpp"
#include "harness/simmachine.hpp"

#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"
