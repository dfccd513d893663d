// Analytic cold-start simulator (Section 5.1).
//
// Replays each application's merged invocation stream against a keep-alive
// policy and classifies every invocation as warm or cold, while accounting
// the "wasted memory time": the time an application image sat loaded in
// memory without executing anything.  Following the paper, function
// execution times default to zero (the conservative worst case for waste),
// the first invocation of every app is a cold start, and all apps are
// assumed to use the same amount of memory unless weighting is enabled.
//
// Window semantics (Figure 9): when an execution ends at time E with
// decision (PW, KA):
//   - PW = 0: the image stays loaded during [E, E + KA].  An invocation in
//     that interval is warm; afterwards, cold.
//   - PW > 0: the image is unloaded at E and re-loaded at E + PW, staying
//     until E + PW + KA.  An invocation before E + PW is cold (it beat the
//     pre-warm); within [E + PW, E + PW + KA] warm; afterwards cold.
// Idle memory is charged from load to unload minus execution time; a window
// that expires unused is charged in full.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/intern.h"
#include "src/common/resource_ledger.h"
#include "src/policy/policy.h"
#include "src/sim/compiled_trace.h"
#include "src/stats/ecdf.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/types.h"

namespace faas {

struct SimulatorOptions {
  // Charge the residency after the last invocation (until the keep-alive
  // expires or the trace horizon ends, whichever is first).
  bool count_tail_residency = true;
  // Use each function's average execution time instead of zero.  Idle time
  // is then measured from execution end, as in the real system.
  bool use_execution_times = false;
  // Weight each app's wasted memory time by its average allocated MB
  // (extension; the paper assumes equal memory use for this analysis).
  bool weight_by_memory = false;
  // Worker threads for the sweep (EvaluatePolicies, sweep.h); apps are
  // independent, so the result is bit-identical to the sequential run.
  // 0 = hardware concurrency.
  int num_threads = 1;
  // Record per-hour cold-start and invocation counts (for adaptation
  // experiments: how quickly a policy recovers after a pattern change).
  bool track_hourly = false;
  // Optional telemetry sink (non-owning; must outlive the run).  Null keeps
  // the hot loop free of any telemetry branches beyond one pointer test.
  Telemetry* telemetry = nullptr;
};

struct AppSimResult {
  // The app's dense id — its position in the CompiledTrace / EntityIndex
  // (in a streamed sweep, in the global index); names re-materialize via
  // SimulationResult::AppName.
  AppId app;
  int64_t invocations = 0;
  int64_t cold_starts = 0;
  // Number of pre-warm loads the policy scheduled that actually happened.
  int64_t prewarm_loads = 0;
  // Cost-accounting spine for this app's replay (src/common/
  // resource_ledger.h): the loaded-but-idle integral (scaled by the app's
  // memory when weighting is on), execution-time residency and CPU when
  // execution times are enabled, and load/hit churn.  The wasted-memory
  // view below derives from it.
  ResourceLedger ledger;
  // Per-hour counts; populated only when SimulatorOptions::track_hourly.
  std::vector<int32_t> cold_per_hour;
  std::vector<int32_t> invocations_per_hour;

  // Loaded-but-idle time, in minutes (scaled by memory when weighting is
  // on) — a view over the ledger's idle residency integral.
  double wasted_memory_minutes() const {
    return ledger.wasted_memory_minutes();
  }
  double ColdStartPercent() const {
    return invocations > 0 ? 100.0 * static_cast<double>(cold_starts) /
                                 static_cast<double>(invocations)
                           : 0.0;
  }
};

struct SimulationResult {
  std::string policy_name;
  std::vector<AppSimResult> apps;
  // Entity names for `apps` (shared with the compiled trace); writers
  // re-materialize strings through it at the output boundary.
  std::shared_ptr<const EntityIndex> entities;

  // Name of apps[i], via `entities`.
  const std::string& AppName(size_t i) const;

  int64_t TotalInvocations() const;
  int64_t TotalColdStarts() const;
  double TotalWastedMemoryMinutes() const;
  // Per-app ledgers folded in app order (bit-identical across threads).
  ResourceLedger TotalResources() const;
  // Percentile (e.g. 75 for the paper's headline metric) of the per-app
  // cold-start percentage distribution.
  double AppColdStartPercentile(double pct) const;
  // CDF of per-app cold-start percentages (Figures 14, 16, 17, 18, 20).
  Ecdf AppColdStartEcdf() const;
  // Fraction of apps whose every invocation was cold (Figure 19).  When
  // `exclude_single_invocation` is set, apps with exactly one invocation are
  // excluded from both numerator and denominator.
  double FractionAppsAlwaysCold(bool exclude_single_invocation) const;
  // Aggregate cold-start fraction per hour across all apps (empty unless the
  // run tracked hourly counts).
  std::vector<double> HourlyColdFraction() const;
};

class ColdStartSimulator {
 public:
  explicit ColdStartSimulator(SimulatorOptions options = {})
      : options_(options) {}

  // Simulates app `app_index` of a compiled trace against `policy` (a fresh
  // instance per app) and stamps AppId(app_index) on the result; sweeps
  // (sweep.h) call it once per (policy, app) cell.  `instruments`
  // (optional) writes per-minute series updates and per-app counter flushes
  // into its `metrics` block and one kAppReplay span into its `spans`
  // buffer; the simulated result itself is unaffected.  The per-app
  // cold-start histogram is the caller's to observe.
  AppSimResult SimulateApp(const CompiledTrace& compiled, size_t app_index,
                           KeepAlivePolicy& policy,
                           const SimPolicyInstruments* instruments =
                               nullptr) const;

 private:
  // Replay core over a merged, time-sorted invocation stream.
  // `exec_ms` may be null, meaning every execution takes zero time.  The
  // caller stamps identity (AppSimResult::app) on the returned result.
  AppSimResult SimulateStream(const int64_t* times_ms, const int64_t* exec_ms,
                              size_t count, double memory_mb, Duration horizon,
                              KeepAlivePolicy& policy,
                              const SimPolicyInstruments* instruments =
                                  nullptr) const;

  // Devirtualized replay for policies with a static decision (fixed
  // keep-alive), used when no per-invocation telemetry is attached.
  // Bit-identical to the general loop: same accumulation order, same
  // comparisons, just without the two virtual calls per invocation.
  AppSimResult SimulateStaticStream(const int64_t* times_ms,
                                    const int64_t* exec_ms, size_t count,
                                    double memory_mb, Duration horizon,
                                    PolicyDecision decision) const;

  SimulatorOptions options_;
};

}  // namespace faas

#endif  // SRC_SIM_SIMULATOR_H_
