// Ablation (Section 5.1's conservative assumption): the paper simulates
// function execution times as zero to quantify worst-case wasted memory.
// This bench re-runs the headline comparison with real (average) execution
// times to show the assumption does not change who wins.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/sweep.h"

namespace {

void RunOnce(const faas::Trace& trace, bool use_execution_times) {
  using namespace faas;
  SimulatorOptions options;
  options.use_execution_times = use_execution_times;
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid_factory{HybridPolicyConfig{}};
  const std::vector<PolicyPoint> points = EvaluatePolicies(
      trace, {&fixed10, &hybrid_factory}, /*baseline_index=*/0, options);
  const SimulationResult& fixed = points[0].result;
  const SimulationResult& hybrid = points[1].result;

  std::printf("\nexecution times %s:\n",
              use_execution_times ? "REAL (per-function averages)" : "ZERO");
  std::printf("  %-28s p75 cold %6.1f%%  wasted %12.0f min\n",
              fixed.policy_name.c_str(), fixed.AppColdStartPercentile(75.0),
              fixed.TotalWastedMemoryMinutes());
  std::printf("  %-28s p75 cold %6.1f%%  wasted %12.0f min\n",
              hybrid.policy_name.c_str(), hybrid.AppColdStartPercentile(75.0),
              hybrid.TotalWastedMemoryMinutes());
  std::printf("  hybrid/fixed cold ratio: %.2fx, waste ratio: %.2fx\n",
              fixed.AppColdStartPercentile(75.0) /
                  std::max(hybrid.AppColdStartPercentile(75.0), 1e-9),
              hybrid.TotalWastedMemoryMinutes() /
                  std::max(fixed.TotalWastedMemoryMinutes(), 1e-9));
}

}  // namespace

int main() {
  using namespace faas;
  PrintBenchHeader("Ablation: execution-time assumption",
                   "zero vs real execution times in the analytic simulator");
  const Trace trace = MakePolicyTrace();
  RunOnce(trace, /*use_execution_times=*/false);
  RunOnce(trace, /*use_execution_times=*/true);
  std::printf("\nShape check: the hybrid-vs-fixed ordering must be identical "
              "under both\nassumptions; zero execution time only makes the "
              "wasted-memory accounting\nconservative (idle time is an upper "
              "bound).\n");
  return 0;
}
