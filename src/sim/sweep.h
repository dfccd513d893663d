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
//     materializes compiled per-app-shard arenas on demand, the step
//     replays a window of shards at a time and, in the same parallel
//     region, fills the next window, and it writes each shard's results at
//     its global app offset.  Peak memory is O(max_resident_shards * shard
//     size + results) instead of O(trace).  Output is bit-identical to the
//     materialized sweep — see DESIGN.md for the determinism argument.

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
  // Upper bound on shard arenas alive at once.  With more than one thread,
  // shards replay in windows of W = min(max_resident_shards / 2, threads)
  // (at least 1) while the next window is filled, so at most 2 * W arenas
  // are resident.  With one thread or a bound of 1, one arena is filled and
  // replayed in turn.  0 is clamped to 1.
  int max_resident_shards = 4;
};

// Streaming counterpart of EvaluatePolicies: pulls shards from `source`
// a window at a time, simulates every (policy, app) cell, and folds
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
