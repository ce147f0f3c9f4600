// The four workloads. Each builds its inputs from the seed, sets up the
// program, measures for the configured time, checks every output, and
// fills an Outcome with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, which records its spans into `tracer`).
#pragma once

#include "common.hpp"

namespace perfbench {

/// solve-paper and solve-dp-heavy: one caller solving instances back to back
/// with parallel-ptas and ptas through SolverRegistry.
Outcome run_solve(const Settings& settings, Tracer& tracer);

/// serve-online: open-loop Poisson arrivals into SolveService.
Outcome run_serve_online(const Settings& settings, Tracer& tracer);

/// serve-batch: all-distinct instances through a bounded async window.
Outcome run_serve_batch(const Settings& settings, Tracer& tracer);

}  // namespace perfbench
