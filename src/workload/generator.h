// Synthetic FaaS trace generator.
//
// Produces Trace objects whose population statistics match the paper's
// published distributions (see GeneratorConfig for the calibration map).
// The generator is deterministic given a seed: the same config always
// produces the identical trace, which keeps every experiment reproducible.
//
// Shard-addressable generation: generation runs in two passes.  Pass 1
// (PreparePlans) samples every app's *structure* — function count, trigger
// combo, popularity rank — and assigns the globally-sorted daily rates; it
// is cheap (no invocation instants) and runs exactly once per generator.
// Pass 2 materializes invocation streams, and consumes only the app's own
// forked RNG stream, so any contiguous range of sampled apps can be
// materialized independently (GenerateShard) and is bit-identical to the
// same apps inside a full Generate().  That property is what lets the
// streaming sweep engine (src/sim/shard_source.h) generate per-shard event
// arenas on demand without ever holding the full trace.

#ifndef SRC_WORKLOAD_GENERATOR_H_
#define SRC_WORKLOAD_GENERATOR_H_

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/types.h"
#include "src/workload/arrival.h"
#include "src/workload/config.h"
#include "src/workload/rate_model.h"

namespace faas {

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(GeneratorConfig config);

  // Generates the full trace.  Apps that receive zero invocations over the
  // horizon are dropped (the Azure dataset only contains invoked functions);
  // `num_apps` is the number of *sampled* apps, so the returned trace may
  // contain slightly fewer.  Idempotent: calling Generate() twice on the
  // same instance returns the same trace.
  Trace Generate();

  // Number of sampled app slots (config.num_apps); shard ranges index these,
  // not the surviving apps of the output trace.
  int num_sampled_apps() const { return config_.num_apps; }

  // Runs pass 1 (see header comment).  Idempotent and thread-safe; called
  // implicitly by Generate/GenerateShard, and explicitly by callers that
  // want the one-time cost paid before a timing region.
  void PreparePlans();

  // Materializes the sampled apps in [begin, end): the returned trace holds
  // that range's *surviving* apps, bit-identical (ids, instants, stats) to
  // the same apps inside Generate()'s output, with a shard-local entity
  // index.  Thread-safe for concurrent calls with any ranges; requires
  // flash crowds disabled (the overlay is a cross-shard global pass).
  Trace GenerateShard(int begin, int end);

  const GeneratorConfig& config() const { return config_; }

  // Exposed for the Figure 5 benches: samples `n` uncapped daily rates.
  std::vector<double> SampleDailyRates(int n);

 private:
  // Pass-1 output for one sampled app: the structure plus the RNG stream
  // state pass 2 continues from.  Materialization copies `rng`, so a plan
  // can be replayed any number of times.
  struct AppPlan {
    Rng rng;
    std::vector<TriggerType> triggers;
    double rate = 0.0;
    bool one_shot = false;
  };

  // Builds the two combo tables (see SampleTriggerCombo).
  void BuildComboTables();
  // Number of functions in a new app (Figure 1 calibration).
  int SampleFunctionsPerApp(Rng& rng) const;
  // Trigger classes for a new app (Figure 3b calibration).  Single-function
  // apps can only hold single-trigger combos, so the sampler keeps two
  // tables: a renormalised single-trigger table for size-1 apps and a
  // compensated table for larger apps, constructed so the aggregate combo
  // marginals still match Figure 3(b).
  std::vector<TriggerType> SampleTriggerCombo(int num_functions,
                                              Rng& rng) const;
  // Assigns triggers to `count` functions covering `combo` at least once.
  std::vector<TriggerType> AssignFunctionTriggers(
      const std::vector<TriggerType>& combo, int count, Rng& rng) const;
  // Invocation instants for one function over [0, horizon).
  std::vector<TimePoint> GenerateInvocations(TriggerType trigger,
                                             double rate_per_day,
                                             Duration horizon, Rng& rng) const;
  // As above, but the pattern switches at a random point mid-trace
  // (pattern_change_fraction apps use this).
  std::vector<TimePoint> GenerateInvocationsWithPatternChange(
      TriggerType trigger, double rate_per_day, Rng& rng) const;
  // Per-function execution summary (Figure 7 calibration).
  ExecutionStats SampleExecutionStats(TriggerType trigger, int64_t invocations,
                                      Rng& rng) const;
  // Per-app memory summary (Figure 8 calibration).
  MemoryStats SampleMemoryStats(Rng& rng) const;

  // Pass 2 for one sampled app, replaying from a copy of its plan's RNG.
  // nullopt when the app never fires inside the horizon (dropped).
  std::optional<AppTrace> MaterializeApp(int app_index) const;

  GeneratorConfig config_;
  // Built once: its week average and thinning envelope serve every function.
  DiurnalProfile profile_;
  RateModel rate_model_;
  Rng root_rng_;

  std::once_flag plans_once_;
  std::vector<AppPlan> plans_;

  struct WeightedCombo {
    std::vector<TriggerType> triggers;
    double weight = 0.0;
  };
  std::vector<WeightedCombo> single_function_combos_;
  std::vector<WeightedCombo> multi_function_combos_;
  double multi_residual_weight_ = 0.0;  // Random 2-3 trigger combos.
};

}  // namespace faas

#endif  // SRC_WORKLOAD_GENERATOR_H_
