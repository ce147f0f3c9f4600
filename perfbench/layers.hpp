// Per-layer probes of a traced run. Each one drives a layer through its
// public functions, outside any service, and reports the layer's metrics.
#pragma once

#include <vector>

#include "common.hpp"
#include "core/instance.hpp"
#include "parallel/executor.hpp"

namespace perfbench {

/// Replays the probe sequence of `parallel-ptas` on each instance through
/// the public stage functions (bounds, rounding, configuration enumeration,
/// the parallel DP on `executor`, the sequential DP for comparison,
/// reconstruction, and the short-job LPT fill), next to an untraced solve of
/// the same instance. Stops after `budget_s` seconds (at least one
/// instance). Reports the core.bounds_us, ptas.* and parallel.* metrics,
/// and fails `out` when a replayed schedule differs from the solver's or
/// ptas.replay_coverage falls below 0.8 (the replay then misses part of the
/// solve).
void measure_ptas_layers(const std::vector<pcmax::Instance>& instances,
                         double epsilon, pcmax::Executor& executor,
                         double budget_s, Tracer& tracer, Outcome& out);

/// Canonicalises each instance of a request stream (CanonicalInstance plus
/// request_fingerprint), then replays the stream's keys through a
/// standalone ResultCache of `capacity` entries: lookup, and insert on a
/// miss. Reports core.canonicalize_us, service.cache_lookup_us and
/// service.cache_insert_us.
void measure_cache_layers(const std::vector<pcmax::Instance>& stream,
                          double epsilon, std::size_t capacity, Tracer& tracer,
                          Outcome& out);

/// Cache slice of one shard when the service runs `shards` shards with the
/// default cache capacity.
std::size_t shard_cache_capacity(unsigned shards);

}  // namespace perfbench
