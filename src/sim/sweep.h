// Policy sweep harness: evaluates a set of policies on one trace and
// normalises wasted memory time against a baseline policy, producing the
// (cold-start %, normalized waste %) points that Figures 15-18 plot.
//
// One step replays a compiled trace (or one shard of it): it schedules one
// task per app chunk on the shared thread pool, largest chunk first, so a
// handful of invocation-heavy chunks (the rate distribution is heavy-tailed)
// cannot serialise the tail of the region.  A task replays its apps
// app-major, every policy back to back per app, with an ArimaMemo installed
// on its thread: the ARIMA-enabled hybrid configs of one app fit the same
// idle-time series, so each distinct fit is paid once per sweep.  Each
// (policy, app) cell gets a fresh policy instance and writes its own result
// slot, and a memo hit is a copy of what the fit would return, so the
// output is bit-identical to evaluating the policies one after another on a
// single thread.  Two entry points call that step:
//
//   - EvaluatePolicies compiles the trace once (CompiledTrace) and calls the
//     step once on all of it.  The merge/sort cost is paid once per sweep
//     instead of once per policy point, and all policy points progress
//     concurrently.  A single-policy run is a one-factory call.
//   - EvaluatePoliciesStreamed never holds the full trace: a ShardSource
//     materializes compiled per-app-shard arenas on demand, a bounded-depth
//     pipeline generates shard k+1 on pool workers while shard k replays,
//     and the step writes each shard's results at its global app offset.
//     Peak memory is O(max_resident_shards * shard size + results) instead
//     of O(trace).  Output is bit-identical to the materialized sweep —
//     see DESIGN.md for the determinism argument.

#ifndef SRC_SIM_SWEEP_H_
#define SRC_SIM_SWEEP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/compiled_trace.h"
#include "src/sim/shard_source.h"
#include "src/sim/simulator.h"

namespace faas {

struct PolicyPoint {
  std::string name;
  // 75th percentile of per-app cold-start percentage (the paper's headline
  // "3rd Quartile App Cold Start" metric).
  double cold_start_p75 = 0.0;
  // Total wasted memory time, minutes.
  double wasted_memory_minutes = 0.0;
  // Wasted memory time normalised to the baseline policy, percent
  // (100 = same as baseline, the 10-minute fixed keep-alive in the paper).
  double normalized_wasted_memory_pct = 0.0;
  // Full per-app results for CDF plots.
  SimulationResult result;
};

// Runs each factory on the trace; the entry at `baseline_index` defines 100%
// wasted memory time.  options.num_threads parallelises across app chunks
// (each covering every policy): 0 = hardware concurrency, <= 1 =
// sequential.  The Trace overload compiles the trace once and delegates.
// The trace must hold at least one app (the p75 roll-up is undefined on
// none).
std::vector<PolicyPoint> EvaluatePolicies(
    const Trace& trace,
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index = 0, const SimulatorOptions& options = {});

std::vector<PolicyPoint> EvaluatePolicies(
    const CompiledTrace& compiled,
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index = 0, const SimulatorOptions& options = {});

struct StreamingSweepOptions {
  // Upper bound on shard arenas alive at once: the consumer simulates shard
  // k while pool workers pre-generate up to (max_resident_shards - 1)
  // shards ahead.  1 disables prefetch (strictly alternate generate /
  // simulate); 0 is clamped to 1.
  int max_resident_shards = 2;
};

// Streaming counterpart of EvaluatePolicies: pulls shards from `source`
// through a bounded pipeline, simulates every (policy, app) cell, and folds
// per-app results in shard order, re-stamping shard-local app ids onto the
// global dense range.  Bit-identical to EvaluatePolicies on the equivalent
// materialized trace, for any max_resident_shards and any --threads.
// Telemetry is not supported in streamed mode (instrument registration
// needs the app population up front); options.telemetry must be null.
std::vector<PolicyPoint> EvaluatePoliciesStreamed(
    const ShardSource& source,
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index = 0, const SimulatorOptions& options = {},
    const StreamingSweepOptions& stream = {});

}  // namespace faas

#endif  // SRC_SIM_SWEEP_H_
