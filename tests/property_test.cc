// Randomised property tests: invariants that must hold for ANY trace and
// ANY policy, checked over a sweep of generated workloads and policy
// configurations.

#include <gtest/gtest.h>

#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/policy/production_policy.h"
#include "src/sim/sweep.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

Trace MakeRandomTrace(uint64_t seed) {
  GeneratorConfig config;
  config.num_apps = 120;
  config.days = 2;
  config.seed = seed;
  config.instants_rate_cap_per_day = 800.0;
  // Vary the population across seeds a little.
  config.pattern_change_fraction = (seed % 3 == 0) ? 0.3 : 0.0;
  return WorkloadGenerator(config).Generate();
}

class SimulatorInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorInvariantTest, HoldForAllPolicies) {
  const Trace trace = MakeRandomTrace(GetParam());
  ASSERT_FALSE(trace.Validate().has_value());

  std::vector<std::unique_ptr<PolicyFactory>> factories;
  factories.push_back(
      std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(10)));
  factories.push_back(std::make_unique<NoUnloadFactory>());
  factories.push_back(
      std::make_unique<HybridPolicyFactory>(HybridPolicyConfig{}));
  HybridPolicyConfig no_prewarm;
  no_prewarm.enable_prewarm = false;
  factories.push_back(std::make_unique<HybridPolicyFactory>(no_prewarm));
  factories.push_back(std::make_unique<ProductionPolicyFactory>());

  // One sweep: the no-unloading bound first, then every factory.
  const NoUnloadFactory no_unload;
  std::vector<const PolicyFactory*> sweep = {&no_unload};
  for (const auto& factory : factories) {
    sweep.push_back(factory.get());
  }
  const std::vector<PolicyPoint> points = EvaluatePolicies(trace, sweep);
  const SimulationResult& bound = points[0].result;

  for (size_t f = 0; f < factories.size(); ++f) {
    const std::unique_ptr<PolicyFactory>& factory = factories[f];
    const SimulationResult& result = points[f + 1].result;
    ASSERT_EQ(result.apps.size(), trace.apps.size());
    int64_t total_invocations = 0;
    for (size_t i = 0; i < result.apps.size(); ++i) {
      const AppSimResult& app = result.apps[i];
      // Cold starts bounded by invocations; at least one (first invocation)
      // for every app that was invoked.
      EXPECT_GE(app.cold_starts, app.invocations > 0 ? 1 : 0)
          << factory->name();
      EXPECT_LE(app.cold_starts, app.invocations) << factory->name();
      // Waste is non-negative and bounded by the whole horizon.
      EXPECT_GE(app.wasted_memory_minutes(), 0.0) << factory->name();
      EXPECT_LE(app.wasted_memory_minutes(), trace.horizon.minutes() + 1e-6)
          << factory->name();
      total_invocations += app.invocations;
      // No-unloading is the per-app cold-start lower bound.
      EXPECT_GE(app.cold_starts, bound.apps[i].cold_starts)
          << factory->name();
    }
    EXPECT_EQ(total_invocations, trace.TotalInvocations()) << factory->name();
  }
}

TEST_P(SimulatorInvariantTest, FixedKeepAliveMonotonicity) {
  const Trace trace = MakeRandomTrace(GetParam() + 1000);
  const FixedKeepAliveFactory ka5(Duration::Minutes(5));
  const FixedKeepAliveFactory ka15(Duration::Minutes(15));
  const FixedKeepAliveFactory ka45(Duration::Minutes(45));
  const FixedKeepAliveFactory ka135(Duration::Minutes(135));
  const std::vector<PolicyPoint> points =
      EvaluatePolicies(trace, {&ka5, &ka15, &ka45, &ka135});
  int64_t previous_cold = -1;
  double previous_waste = -1.0;
  for (const PolicyPoint& point : points) {
    const SimulationResult& result = point.result;
    if (previous_cold >= 0) {
      EXPECT_LE(result.TotalColdStarts(), previous_cold) << point.name;
      EXPECT_GE(result.TotalWastedMemoryMinutes(), previous_waste - 1e-6)
          << point.name;
    }
    previous_cold = result.TotalColdStarts();
    previous_waste = result.TotalWastedMemoryMinutes();
  }
}

TEST_P(SimulatorInvariantTest, HourlyCountsSumToTotals) {
  const Trace trace = MakeRandomTrace(GetParam() + 2000);
  SimulatorOptions options;
  options.track_hourly = true;
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const SimulationResult result =
      EvaluatePolicies(trace, {&hybrid}, 0, options)[0].result;
  for (const AppSimResult& app : result.apps) {
    int64_t invocations = 0;
    int64_t cold = 0;
    for (size_t h = 0; h < app.invocations_per_hour.size(); ++h) {
      invocations += app.invocations_per_hour[h];
      cold += app.cold_per_hour[h];
      EXPECT_LE(app.cold_per_hour[h], app.invocations_per_hour[h]);
    }
    EXPECT_EQ(invocations, app.invocations);
    EXPECT_EQ(cold, app.cold_starts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorInvariantTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class HybridWindowInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HybridWindowInvariantTest, WindowsAlwaysSane) {
  // Feed the policy a random IT stream; every decision must produce
  // non-negative windows with the keep-alive end inside range * (1+margin)
  // for histogram decisions, and a positive keep-alive for ARIMA ones.
  Rng rng(GetParam());
  HybridPolicyConfig config;
  config.min_histogram_samples = 2;
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 400; ++i) {
    const double minutes = rng.NextLogNormal(3.0, 1.8);  // Median ~20 min.
    policy.RecordIdleTime(Duration::FromMinutesF(minutes));
    const PolicyDecision decision = policy.NextWindows();
    EXPECT_GE(decision.prewarm_window, Duration::Zero());
    EXPECT_GE(decision.keepalive_window, Duration::Zero());
    if (policy.last_decision() ==
        HybridHistogramPolicy::DecisionKind::kHistogram) {
      EXPECT_LE(decision.prewarm_window + decision.keepalive_window,
                config.HistogramRange() * 1.1 + Duration::Millis(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridWindowInvariantTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace faas
