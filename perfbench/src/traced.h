// The traced run: a single-threaded phase loop takes every session of a
// workload through GroupSession's public phases with spans on, replays
// each recompute's snapshot through the index, mpn and codec entry points,
// and turns spans and work counters into the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct TracedResult {
  std::vector<Metric> per_layer;
  /// False when a structural check failed: phase coverage outside 5% of
  /// the loop's wall time, a deterministic counter that did not repeat,
  /// or a replayed result that disagreed with the session's.
  bool ok = true;
  FailureCount sessions;  ///< the loop's sessions, checked against reps[0]
};

/// `reps` are the untraced engine repetitions of the same workload and seed
/// (warm-up excluded, at least one of input set 0); they supply the
/// engine-level metrics. The loop replays input set 0. Writes the replay
/// pass's spans to `trace_path` as Chrome trace-event JSON.
TracedResult RunTraced(const WorkloadSpec& spec, uint64_t seed,
                       const std::vector<RepResult>& reps,
                       const std::string& trace_path);

}  // namespace perfbench
