// Figure 19: percentage of applications that always experience cold starts,
// under (1) the fixed keep-alive, (2) the hybrid policy without ARIMA, and
// (3) the full hybrid policy — all with a 4-hour keep-alive/range.
// Paper: ARIMA halves the always-cold share (10.5% -> 5.2%); excluding
// single-invocation apps the reduction is 75% (6.9% -> 1.7%).  During their
// week, 0.64% of invocations were handled by ARIMA and 9.3% of apps used it
// at least once.

#include <vector>

#include "bench/bench_common.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/compiled_trace.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"

int main() {
  using namespace faas;
  PrintBenchHeader("Figure 19", "always-cold applications and ARIMA");
  const Trace trace = MakePolicyTrace();
  SimulatorOptions sim_options;
  sim_options.num_threads = 0;  // Use all cores; results are identical.
  const CompiledTrace compiled =
      CompiledTrace::Compile(trace, sim_options.num_threads);

  // All policies use 4 hours, as in the paper's comparison.
  const FixedKeepAliveFactory fixed_4h(Duration::Hours(4));
  HybridPolicyConfig no_arima_config;
  no_arima_config.enable_arima = false;
  const HybridPolicyFactory hybrid_no_arima{no_arima_config};
  const HybridPolicyFactory hybrid_full{HybridPolicyConfig{}};

  const char* labels[] = {"fixed (4h)", "hybrid without ARIMA",
                          "full hybrid (with ARIMA)"};
  const std::vector<PolicyPoint> points = EvaluatePolicies(
      compiled, {&fixed_4h, &hybrid_no_arima, &hybrid_full},
      /*baseline_index=*/0, sim_options);

  std::printf("\n%-28s %22s %30s\n", "policy", "% apps always cold",
              "excl. single-invocation apps");
  for (size_t p = 0; p < points.size(); ++p) {
    std::printf("%-28s %21.2f%% %29.2f%%\n", labels[p],
                100.0 * points[p].result.FractionAppsAlwaysCold(false),
                100.0 * points[p].result.FractionAppsAlwaysCold(true));
  }

  const double without_arima = points[1].result.FractionAppsAlwaysCold(true);
  const double with_arima = points[2].result.FractionAppsAlwaysCold(true);
  std::printf("\nAnchors (paper vs measured):\n");
  PrintPaperVsMeasured(
      "ARIMA's reduction of always-cold apps, excl. singles (%)", 75.0,
      without_arima > 0.0
          ? 100.0 * (1.0 - with_arima / without_arima)
          : 0.0,
      "%");

  // How much work ARIMA actually did.
  const HybridPolicyFactory probe{HybridPolicyConfig{}};
  int64_t arima_decisions = 0;
  int64_t total_decisions = 0;
  int64_t apps_using_arima = 0;
  const ColdStartSimulator simulator(sim_options);
  for (size_t i = 0; i < compiled.num_apps(); ++i) {
    auto policy = probe.CreateForApp();
    auto* hybrid = static_cast<HybridHistogramPolicy*>(policy.get());
    simulator.SimulateApp(compiled, i, *policy);
    arima_decisions += hybrid->decisions_by_arima();
    total_decisions += hybrid->decisions_by_arima() +
                       hybrid->decisions_by_histogram() +
                       hybrid->decisions_by_standard();
    if (hybrid->decisions_by_arima() > 0) {
      ++apps_using_arima;
    }
  }
  PrintPaperVsMeasured(
      "invocations handled by ARIMA (%)", 0.64,
      total_decisions > 0
          ? 100.0 * static_cast<double>(arima_decisions) /
                static_cast<double>(total_decisions)
          : 0.0,
      "%");
  PrintPaperVsMeasured(
      "apps that used ARIMA at least once (%)", 9.3,
      100.0 * static_cast<double>(apps_using_arima) /
          static_cast<double>(trace.apps.size()),
      "%");
  return 0;
}
