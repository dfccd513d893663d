// Ablation (design challenge #2): adaptation to invocation-pattern changes.
// A third of the apps switch their arrival pattern mid-trace (rate rescaled,
// process re-sampled).  The hybrid policy must absorb the change: a brief
// cold-start spike right after the switch, then recovery as fresh idle
// times repopulate the histogram (and the representativeness check guards
// the transition).  The fixed keep-alive, having no model, is insensitive
// but uniformly worse.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/sweep.h"
#include "src/workload/generator.h"

int main() {
  using namespace faas;
  PrintBenchHeader("Ablation: pattern change",
                   "policy adaptation when apps switch IT regimes");
  GeneratorConfig gen_config;
  gen_config.num_apps = 1000;
  gen_config.days = 7;
  gen_config.seed = 20190715;
  gen_config.instants_rate_cap_per_day = 4000.0;
  gen_config.pattern_change_fraction = 0.33;
  const Trace trace = WorkloadGenerator(gen_config).Generate();
  std::printf("trace: %zu apps (33%% switch patterns mid-week), %lld "
              "invocations\n",
              trace.apps.size(),
              static_cast<long long>(trace.TotalInvocations()));

  SimulatorOptions options;
  options.track_hourly = true;
  options.num_threads = 0;
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid_factory{HybridPolicyConfig{}};
  const std::vector<PolicyPoint> points = EvaluatePolicies(
      trace, {&fixed10, &hybrid_factory}, /*baseline_index=*/0, options);
  const SimulationResult& fixed = points[0].result;
  const SimulationResult& hybrid = points[1].result;

  const std::vector<double> fixed_hourly = fixed.HourlyColdFraction();
  const std::vector<double> hybrid_hourly = hybrid.HourlyColdFraction();

  std::printf("\ncold-start fraction of invocations, per 12-hour window:\n");
  std::printf("%12s %12s %12s\n", "window", "fixed", "hybrid");
  const size_t hours = std::min(fixed_hourly.size(), hybrid_hourly.size());
  for (size_t start = 0; start + 12 <= hours; start += 12) {
    double fixed_sum = 0.0;
    double hybrid_sum = 0.0;
    for (size_t h = start; h < start + 12; ++h) {
      fixed_sum += fixed_hourly[h];
      hybrid_sum += hybrid_hourly[h];
    }
    std::printf("%9zuh+ %11.4f %12.4f\n", start, fixed_sum / 12.0,
                hybrid_sum / 12.0);
  }

  std::printf("\n%-20s p75 cold %6.1f%% (fixed) vs %5.1f%% (hybrid)\n",
              "overall:", fixed.AppColdStartPercentile(75.0),
              hybrid.AppColdStartPercentile(75.0));
  std::printf(
      "\nShape check: hybrid stays below fixed in every window; switches are\n"
      "spread across the middle half of the week, so there is no single\n"
      "spike, but the hybrid advantage persists through the turbulence.\n");
  int hybrid_wins = 0;
  int windows = 0;
  for (size_t start = 0; start + 12 <= hours; start += 12) {
    double fixed_sum = 0.0;
    double hybrid_sum = 0.0;
    for (size_t h = start; h < start + 12; ++h) {
      fixed_sum += fixed_hourly[h];
      hybrid_sum += hybrid_hourly[h];
    }
    ++windows;
    if (hybrid_sum <= fixed_sum) {
      ++hybrid_wins;
    }
  }
  std::printf("measured: hybrid at or below fixed in %d/%d windows\n",
              hybrid_wins, windows);
  return 0;
}
