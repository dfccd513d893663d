// Figure 14: cold-start behaviour of the fixed keep-alive policy as a
// function of the keep-alive length (5 min ... 120 min, plus no-unloading).
// Paper anchors: p75 app cold-start ~50.3% at 10 minutes, ~25% at 1 hour;
// even no-unloading leaves ~3.5% of apps always cold (single invocation).

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "bench/series_writer.h"
#include "src/policy/policy.h"
#include "src/sim/sweep.h"

int main() {
  using namespace faas;
  PrintBenchHeader("Figure 14", "fixed keep-alive cold-start CDFs");
  const Trace trace = MakePolicyTrace();
  std::printf("trace: %zu apps, %lld invocations over %d days\n",
              trace.apps.size(),
              static_cast<long long>(trace.TotalInvocations()), 7);

  const int keepalive_minutes[] = {5, 10, 20, 30, 45, 60, 90, 120};
  std::vector<FixedKeepAliveFactory> fixed;
  for (int minutes : keepalive_minutes) {
    fixed.emplace_back(Duration::Minutes(minutes));
  }
  const NoUnloadFactory no_unload;
  std::vector<const PolicyFactory*> factories;
  for (const FixedKeepAliveFactory& factory : fixed) {
    factories.push_back(&factory);
  }
  factories.push_back(&no_unload);
  SimulatorOptions sim_options;
  sim_options.num_threads = 0;  // Use all cores; results are identical.
  const std::vector<PolicyPoint> points =
      EvaluatePolicies(trace, factories, /*baseline_index=*/0, sim_options);

  SeriesWriter series("fig14_fixed_keepalive",
                      {"policy", "p25", "p50", "p75", "p95", "always_cold_pct"});
  std::printf("\n%-14s %10s %10s %10s %10s %14s\n", "policy", "p25", "p50",
              "p75", "p95", "% always cold");
  const auto print_row = [](const SimulationResult& result) {
    std::printf("%-14s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %13.1f%%\n",
                result.policy_name.c_str(),
                result.AppColdStartPercentile(25.0),
                result.AppColdStartPercentile(50.0),
                result.AppColdStartPercentile(75.0),
                result.AppColdStartPercentile(95.0),
                100.0 * result.FractionAppsAlwaysCold(false));
  };
  std::vector<double> p75_by_policy;
  for (size_t p = 0; p < fixed.size(); ++p) {
    const SimulationResult& result = points[p].result;
    p75_by_policy.push_back(result.AppColdStartPercentile(75.0));
    print_row(result);
    series.Row(result.policy_name, result.AppColdStartPercentile(25.0),
               result.AppColdStartPercentile(50.0),
               result.AppColdStartPercentile(75.0),
               result.AppColdStartPercentile(95.0),
               100.0 * result.FractionAppsAlwaysCold(false));
  }
  const SimulationResult& baseline = points.back().result;
  print_row(baseline);

  std::printf("\nAnchors (paper vs measured):\n");
  PrintPaperVsMeasured("p75 cold-start at 10-minute keep-alive (%)", 50.3,
                       p75_by_policy[1], "%");
  PrintPaperVsMeasured("p75 cold-start at 60-minute keep-alive (%)", 25.0,
                       p75_by_policy[5], "%");
  PrintPaperVsMeasured("always-cold apps under no-unloading (%)", 3.5,
                       100.0 * baseline.FractionAppsAlwaysCold(false), "%");
  std::printf("\nShape check: cold starts fall monotonically with longer "
              "keep-alive.\n");
  return 0;
}
